#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "cluster/sim_engine.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/physical_plan.h"
#include "matrix/dense_matrix.h"
#include "sched/elastic.h"
#include "sched/workload_manager.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// Slot share
// ---------------------------------------------------------------------------

TEST(SlotShareTest, SinglePlanGetsEverySlot) {
  EXPECT_EQ(WorkloadManager::SlotShare(4, 1), 4);
  EXPECT_EQ(WorkloadManager::SlotShare(4, 0), 4);  // none running
}

TEST(SlotShareTest, FairShareSplitsAcrossPlans) {
  struct Row {
    int running;
    int share;
  };
  // 5 slots: ceil(5 / running), and the whole pool when none run.
  for (const Row& row : {Row{0, 5}, Row{1, 5}, Row{2, 3}, Row{3, 2}}) {
    EXPECT_EQ(WorkloadManager::SlotShare(5, row.running), row.share)
        << "5 slots over " << row.running << " running plans";
  }
}

// ---------------------------------------------------------------------------
// WorkloadManager harnesses
// ---------------------------------------------------------------------------

constexpr int64_t kTile = 512;

/// Simulated world: plans are metadata-only matmuls over a shared DFS.
class SchedSimTest : public ::testing::Test {
 protected:
  SchedSimTest() : dfs_(MakeDfsOptions()), store_(&dfs_) {
    ClusterConfig cluster{MachineProfile{}, 4, 2};
    engine_ = std::make_unique<SimEngine>(cluster, SimEngineOptions{});
  }

  static DfsOptions MakeDfsOptions() {
    DfsOptions options;
    options.num_nodes = 4;
    return options;
  }

  /// One `tag`: C = A x B plan over dim-square metadata-only inputs.
  PhysicalPlan MakePlan(const std::string& tag, int64_t dim) {
    TiledMatrix a{tag + "_A", TileLayout::Square(dim, dim, kTile)};
    TiledMatrix b{tag + "_B", TileLayout::Square(dim, dim, kTile)};
    TiledMatrix c{tag + "_C", TileLayout::Square(dim, dim, kTile)};
    for (const TiledMatrix& m : {a, b}) {
      for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
        for (int64_t col = 0; col < m.layout.grid_cols(); ++col) {
          CUMULON_CHECK(store_.PutMeta(m.name, TileId{r, col},
                                       16 + kTile * kTile * 8, -1)
                            .ok());
        }
      }
    }
    PhysicalPlan plan;
    CUMULON_CHECK(AddMatMul(a, b, c, MatMulParams{}, {}, &plan).ok());
    return plan;
  }

  WorkloadManagerOptions SimManagerOptions() {
    WorkloadManagerOptions options;
    options.virtual_time = true;
    options.executor.real_mode = false;
    options.executor.job_startup_seconds = 1.0;
    return options;
  }

  Submission MakeSubmission(const std::string& tag, int64_t dim,
                            double est_seconds, double est_dollars) {
    Submission submission;
    submission.name = tag;
    submission.plan = MakePlan(tag, dim);
    submission.estimate = {est_seconds, est_dollars, true};
    return submission;
  }

  SimDfs dfs_;
  DfsTileStore store_;
  TileOpCostModel cost_;
  std::unique_ptr<SimEngine> engine_;
};

/// Runs every job on `inner` and records the slot share it arrived with.
/// The first `gate` jobs wait for one another before reading the share,
/// and again before running, so plans that start together are all running
/// when their shares are read.
class ShareRecordingEngine : public Engine {
 public:
  ShareRecordingEngine(Engine* inner, int gate) : inner_(inner), gate_(gate) {}

  Result<JobStats> RunJob(const JobSpec& job) override {
    {
      MutexLock lock(&mu_);
      ++arrived_;
      gate_cv_.NotifyAll();
      while (arrived_ < gate_) gate_cv_.Wait(&mu_);
      shares_.push_back(job.slot_share != nullptr ? job.slot_share->load()
                                                  : -1);
      gate_cv_.NotifyAll();
      while (static_cast<int>(shares_.size()) < gate_) gate_cv_.Wait(&mu_);
    }
    return inner_->RunJob(job);
  }

  const ClusterConfig& config() const override { return inner_->config(); }

  std::vector<int> shares() const {
    MutexLock lock(&mu_);
    return shares_;
  }

 private:
  Engine* inner_;
  const int gate_;
  mutable Mutex mu_{"ShareRecordingEngine::mu_"};
  CondVar gate_cv_;
  int arrived_ CUMULON_GUARDED_BY(mu_) = 0;
  std::vector<int> shares_ CUMULON_GUARDED_BY(mu_);
};

TEST_F(SchedSimTest, RunningPlansSplitTheSlotTotal) {
  // Alone, a plan's job sees the whole 4 x 2 cluster.
  {
    ShareRecordingEngine engine(engine_.get(), /*gate=*/1);
    WorkloadManagerOptions options = SimManagerOptions();
    options.max_concurrent_plans = 1;
    WorkloadManager manager(&store_, &engine, &cost_, options);
    ASSERT_TRUE(manager.Submit(MakeSubmission("solo", 1024, 10.0, 0.1)).ok());
    manager.Drain();
    EXPECT_EQ(engine.shares(), std::vector<int>({8}));
  }
  // Two plans that run together each get ceil(8 / 2) slots, and the share
  // is the whole pool again once neither runs.
  ShareRecordingEngine engine(engine_.get(), /*gate=*/2);
  WorkloadManagerOptions options = SimManagerOptions();
  options.defer_start = true;
  options.max_concurrent_plans = 2;
  WorkloadManager manager(&store_, &engine, &cost_, options);
  EXPECT_EQ(manager.slot_share(), 8);
  for (const char* tag : {"p", "q"}) {
    ASSERT_TRUE(manager.Submit(MakeSubmission(tag, 1024, 10.0, 0.1)).ok());
  }
  manager.Start();
  for (const PlanOutcome& outcome : manager.Drain()) {
    EXPECT_EQ(outcome.state, PlanState::kDone) << outcome.status;
  }
  EXPECT_EQ(engine.shares(), std::vector<int>({4, 4}));
  EXPECT_EQ(manager.slot_share(), manager.total_slots());
}

TEST_F(SchedSimTest, RunsSubmissionsToCompletion) {
  WorkloadManager manager(&store_, engine_.get(), &cost_,
                          SimManagerOptions());
  auto id1 = manager.Submit(MakeSubmission("p1", 1024, 5.0, 0.1));
  auto id2 = manager.Submit(MakeSubmission("p2", 1024, 5.0, 0.1));
  ASSERT_TRUE(id1.ok()) << id1.status();
  ASSERT_TRUE(id2.ok()) << id2.status();
  const PlanOutcome out1 = manager.Wait(*id1);
  EXPECT_EQ(out1.state, PlanState::kDone);
  EXPECT_GT(out1.stats.total_seconds, 0.0);
  const std::vector<PlanOutcome> all = manager.Drain();
  EXPECT_EQ(all.size(), 2u);
  for (const PlanOutcome& outcome : all) {
    EXPECT_EQ(outcome.state, PlanState::kDone) << outcome.status;
    EXPECT_GE(outcome.finish_seconds, outcome.start_seconds);
  }
  EXPECT_EQ(manager.metrics()->counter("sched.completed")->Value(), 2);
}

TEST_F(SchedSimTest, RejectsInfeasibleDeadlineWithEstimate) {
  WorkloadManager manager(&store_, engine_.get(), &cost_,
                          SimManagerOptions());
  Submission submission = MakeSubmission("tight", 1024, 120.0, 0.5);
  submission.deadline_seconds = 10.0;  // estimate says 120 s
  auto id = manager.Submit(std::move(submission));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  // The rejection carries the predictor's estimate so the tenant can pick
  // a feasible deadline.
  EXPECT_NE(id.status().message().find("120"), std::string::npos)
      << id.status();
  EXPECT_NE(id.status().message().find("deadline"), std::string::npos);
  EXPECT_EQ(manager.metrics()->counter("sched.rejected")->Value(), 1);
  manager.Drain();
}

TEST_F(SchedSimTest, RejectsOverBudgetSubmission) {
  WorkloadManager manager(&store_, engine_.get(), &cost_,
                          SimManagerOptions());
  Submission submission = MakeSubmission("pricey", 1024, 10.0, 2.5);
  submission.budget_dollars = 1.0;  // estimate says $2.50
  auto id = manager.Submit(std::move(submission));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(id.status().message().find("budget"), std::string::npos);
  manager.Drain();
}

TEST_F(SchedSimTest, QueuedBacklogTightensAdmission) {
  // A deadline feasible on an idle manager becomes infeasible once the
  // queue already holds hours of estimated work.
  WorkloadManagerOptions options = SimManagerOptions();
  options.defer_start = true;
  options.max_concurrent_plans = 1;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  ASSERT_TRUE(manager.Submit(MakeSubmission("bulk", 1024, 3600.0, 1.0)).ok());
  Submission late = MakeSubmission("late", 1024, 30.0, 0.1);
  late.deadline_seconds = 60.0;  // fine alone, hopeless behind 1h of work
  auto id = manager.Submit(std::move(late));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  manager.Start();
  manager.Drain();
}

TEST_F(SchedSimTest, EdfOvertakesFifoOrder) {
  // Loose-deadline plan submitted first, tight-deadline second. FIFO runs
  // them in submission order; EDF lets the tight deadline overtake.
  for (const SchedPolicy policy : {SchedPolicy::kFifo, SchedPolicy::kEdf}) {
    WorkloadManagerOptions options = SimManagerOptions();
    options.policy = policy;
    options.max_concurrent_plans = 1;
    options.defer_start = true;
    WorkloadManager manager(&store_, engine_.get(), &cost_, options);
    Submission loose =
        MakeSubmission(StrCat("loose_", SchedPolicyName(policy)), 2048,
                       100.0, 0.1);
    loose.deadline_seconds = 100000.0;
    Submission tight =
        MakeSubmission(StrCat("tight_", SchedPolicyName(policy)), 1024,
                       10.0, 0.1);
    tight.deadline_seconds = 50000.0;
    auto loose_id = manager.Submit(std::move(loose));
    auto tight_id = manager.Submit(std::move(tight));
    ASSERT_TRUE(loose_id.ok()) << loose_id.status();
    ASSERT_TRUE(tight_id.ok()) << tight_id.status();
    manager.Start();
    const PlanOutcome loose_out = manager.Wait(*loose_id);
    const PlanOutcome tight_out = manager.Wait(*tight_id);
    manager.Drain();
    if (policy == SchedPolicy::kFifo) {
      EXPECT_LT(loose_out.start_seconds, tight_out.start_seconds);
    } else {
      EXPECT_LT(tight_out.start_seconds, loose_out.start_seconds);
    }
  }
}

TEST_F(SchedSimTest, FairShareAlternatesTenants) {
  // Tenant A floods the queue, then tenant B submits one plan: fair-share
  // runs B's plan second (after one A plan), not last.
  WorkloadManagerOptions options = SimManagerOptions();
  options.policy = SchedPolicy::kFairShare;
  options.max_concurrent_plans = 1;
  options.defer_start = true;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  std::vector<int64_t> heavy_ids;
  for (int i = 0; i < 3; ++i) {
    Submission s = MakeSubmission(StrCat("heavy", i), 1024, 10.0, 0.1);
    s.tenant = "heavy";
    auto id = manager.Submit(std::move(s));
    ASSERT_TRUE(id.ok());
    heavy_ids.push_back(*id);
  }
  Submission light = MakeSubmission("light", 1024, 10.0, 0.1);
  light.tenant = "light";
  auto light_id = manager.Submit(std::move(light));
  ASSERT_TRUE(light_id.ok());
  manager.Start();
  const PlanOutcome light_out = manager.Wait(*light_id);
  const std::vector<PlanOutcome> all = manager.Drain();
  int heavier_started_before_light = 0;
  for (int64_t id : heavy_ids) {
    for (const PlanOutcome& outcome : all) {
      if (outcome.plan_id == id &&
          outcome.start_seconds < light_out.start_seconds) {
        ++heavier_started_before_light;
      }
    }
  }
  EXPECT_EQ(heavier_started_before_light, 1);
}

TEST_F(SchedSimTest, CancelQueuedPlanNeverRuns) {
  WorkloadManagerOptions options = SimManagerOptions();
  options.defer_start = true;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  auto id = manager.Submit(MakeSubmission("doomed", 1024, 5.0, 0.1));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(manager.Cancel(*id).ok());
  EXPECT_FALSE(manager.Cancel(*id).ok());  // already terminal
  manager.Start();
  const PlanOutcome outcome = manager.Wait(*id);
  EXPECT_EQ(outcome.state, PlanState::kCancelled);
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(outcome.stats.jobs.empty());
  manager.Drain();
  EXPECT_EQ(manager.metrics()->counter("sched.cancelled")->Value(), 1);
}

TEST_F(SchedSimTest, PlanTagsScopeMetricsAndTraceLanes) {
  Tracer tracer(Tracer::ClockDomain::kVirtual);
  MetricsRegistry metrics;
  // Task spans are recorded by the engine, so the tracer must be wired
  // into the engine options as well as the manager.
  SimEngineOptions sim_options;
  sim_options.tracer = &tracer;
  SimEngine engine(ClusterConfig{MachineProfile{}, 4, 2}, sim_options);
  WorkloadManagerOptions options = SimManagerOptions();
  options.metrics = &metrics;
  options.tracer = &tracer;
  WorkloadManager manager(&store_, &engine, &cost_, options);
  auto a = manager.Submit(MakeSubmission("alpha", 1024, 5.0, 0.1));
  auto b = manager.Submit(MakeSubmission("beta", 1536, 5.0, 0.1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const PlanOutcome out_a = manager.Wait(*a);
  const PlanOutcome out_b = manager.Wait(*b);
  manager.Drain();
  ASSERT_EQ(out_a.state, PlanState::kDone) << out_a.status;
  ASSERT_EQ(out_b.state, PlanState::kDone) << out_b.status;

  // Each outcome carries its own plan's figures even though the registry
  // is shared: alpha is a 2x2-tile product (4 tasks), beta 3x3 (9 tasks).
  EXPECT_EQ(out_a.stats.total_tasks, 4);
  EXPECT_EQ(out_b.stats.total_tasks, 9);
  EXPECT_EQ(metrics.Snapshot().CounterOr("exec.tasks", -1), 13);

  // Spans: every task span is tagged with its plan's name and carries a
  // plan arg; per-plan "plan" spans exist on distinct driver lanes.
  int alpha_tasks = 0, beta_tasks = 0, plan_spans = 0;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.category == "task") {
      const bool is_alpha = span.name.rfind("alpha/", 0) == 0;
      const bool is_beta = span.name.rfind("beta/", 0) == 0;
      EXPECT_TRUE(is_alpha || is_beta) << span.name;
      alpha_tasks += is_alpha;
      beta_tasks += is_beta;
      bool has_plan_arg = false;
      for (const auto& [key, value] : span.args) {
        has_plan_arg |= key == "plan";
      }
      EXPECT_TRUE(has_plan_arg);
    }
    if (span.category == "plan") {
      ++plan_spans;
      EXPECT_EQ(span.machine, -1);
    }
  }
  EXPECT_EQ(alpha_tasks, 4);
  EXPECT_EQ(beta_tasks, 9);
  EXPECT_EQ(plan_spans, 2);
}

TEST_F(SchedSimTest, SharedRegistryDoesNotGrowWithPlansServed) {
  // A long-lived manager serves one tenant's distinctly named plans: the
  // shared registry's name set must be bounded by what the system does,
  // not by how many plans it has served.
  MetricsRegistry metrics;
  WorkloadManagerOptions options = SimManagerOptions();
  options.metrics = &metrics;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  auto serve = [&](int first, int count) {
    for (int i = first; i < first + count; ++i) {
      Submission submission =
          MakeSubmission(StrCat("plan", i), 1024, 5.0, 0.1);
      submission.tenant = "tenant";
      auto id = manager.Submit(std::move(submission));
      ASSERT_TRUE(id.ok()) << id.status();
      EXPECT_EQ(manager.Wait(*id).state, PlanState::kDone);
    }
  };
  auto registered_names = [&metrics] {
    const MetricsSnapshot snapshot = metrics.Snapshot();
    return snapshot.counters.size() + snapshot.gauges.size() +
           snapshot.histograms.size();
  };
  serve(0, 2);
  const size_t names_after_two = registered_names();
  serve(2, 8);
  EXPECT_EQ(registered_names(), names_after_two);
  manager.Drain();
}

// ---------------------------------------------------------------------------
// Concurrent stress vs serial execution (real mode, bit-identical outputs)
// ---------------------------------------------------------------------------

struct StressPlanSpec {
  std::string tag;
  int64_t dim = 0;
  uint64_t seed = 0;
};

PhysicalPlan BuildStressPlan(const StressPlanSpec& spec) {
  const int64_t tile = 8;
  TiledMatrix a{spec.tag + "_A", TileLayout::Square(spec.dim, spec.dim, tile)};
  TiledMatrix b{spec.tag + "_B", TileLayout::Square(spec.dim, spec.dim, tile)};
  TiledMatrix c{spec.tag + "_C", TileLayout::Square(spec.dim, spec.dim, tile)};
  PhysicalPlan plan;
  // Split-k products exercise temporaries + SumJob under concurrency.
  CUMULON_CHECK(AddMatMul(a, b, c, MatMulParams{1, 1, 2},
                          {EwStep::Unary(UnaryOp::kScale, 0.5)}, &plan)
                    .ok());
  return plan;
}

void LoadStressInputs(const StressPlanSpec& spec, TileStore* store) {
  const int64_t tile = 8;
  Rng rng(spec.seed);
  for (const char* suffix : {"_A", "_B"}) {
    const TiledMatrix m{spec.tag + suffix,
                        TileLayout::Square(spec.dim, spec.dim, tile)};
    DenseMatrix dense = DenseMatrix::Gaussian(spec.dim, spec.dim, &rng);
    CUMULON_CHECK(StoreDense(dense, m, store).ok());
  }
}

TEST(SchedStressTest, ConcurrentPlansMatchSerialBitForBit) {
  const int kPlans = 12;
  std::vector<StressPlanSpec> specs;
  for (int i = 0; i < kPlans; ++i) {
    specs.push_back({StrCat("s", i), 16 + 8 * (i % 3), 1000 + 7 * (uint64_t)i});
  }

  // Concurrent: every plan through one manager over one shared engine.
  InMemoryTileStore concurrent_store;
  ClusterConfig cluster{MachineProfile{}, 2, 2};
  RealEngine engine(cluster, RealEngineOptions{});
  TileOpCostModel cost;
  MetricsRegistry metrics;
  WorkloadManagerOptions options;
  options.max_concurrent_plans = 4;
  options.metrics = &metrics;
  WorkloadManager manager(&concurrent_store, &engine, &cost, options);

  std::vector<int64_t> ids;
  for (const StressPlanSpec& spec : specs) {
    LoadStressInputs(spec, &concurrent_store);
    Submission submission;
    submission.name = spec.tag;
    submission.plan = BuildStressPlan(spec);
    auto id = manager.Submit(std::move(submission));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  // Random-looking cancellations racing the workers: some land while the
  // plan is queued or running, some after it finished (FailedPrecondition).
  for (size_t i = 2; i < ids.size(); i += 5) {
    (void)manager.Cancel(ids[i]);
  }
  const std::vector<PlanOutcome> outcomes = manager.Drain();
  ASSERT_EQ(outcomes.size(), specs.size());

  // Serial reference: identical inputs in a fresh store, one plan at a
  // time through a bare executor.
  InMemoryTileStore serial_store;
  RealEngine serial_engine(cluster, RealEngineOptions{});
  Executor serial_executor(&serial_store, &serial_engine, &cost,
                           ExecutorOptions{});
  for (const StressPlanSpec& spec : specs) {
    LoadStressInputs(spec, &serial_store);
    auto stats = serial_executor.Run(BuildStressPlan(spec));
    ASSERT_TRUE(stats.ok()) << stats.status();
  }

  int completed = 0, cancelled = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const PlanOutcome& outcome = outcomes[i];
    ASSERT_EQ(outcome.name, specs[i].tag);
    if (outcome.state == PlanState::kCancelled) {
      ++cancelled;
      EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
      continue;
    }
    ASSERT_EQ(outcome.state, PlanState::kDone) << outcome.status;
    ++completed;
    const TiledMatrix c{specs[i].tag + "_C",
                        TileLayout::Square(specs[i].dim, specs[i].dim, 8)};
    auto concurrent = LoadDense(c, &concurrent_store);
    auto serial = LoadDense(c, &serial_store);
    ASSERT_TRUE(concurrent.ok()) << concurrent.status();
    ASSERT_TRUE(serial.ok()) << serial.status();
    auto diff = concurrent->MaxAbsDiff(*serial);
    ASSERT_TRUE(diff.ok()) << diff.status();
    EXPECT_EQ(diff.value(), 0.0) << "plan " << specs[i].tag
                                 << " diverged from serial execution";
  }
  EXPECT_GT(completed, 0);
  EXPECT_EQ(completed + cancelled, kPlans);
  EXPECT_EQ(metrics.counter("sched.completed")->Value(), completed);
  EXPECT_EQ(metrics.counter("sched.cancelled")->Value(), cancelled);
  // No plan runs, so the share is the whole pool again.
  EXPECT_EQ(manager.slot_share(), manager.total_slots());
}

// ---------------------------------------------------------------------------
// Shutdown semantics: nonblocking queries, queue pull-back, drain races
// ---------------------------------------------------------------------------

TEST_F(SchedSimTest, QueryStateAndTryGetOutcomeAreNonblocking) {
  WorkloadManagerOptions options = SimManagerOptions();
  options.defer_start = true;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  auto id = manager.Submit(MakeSubmission("q", 1024, 5.0, 0.1));
  ASSERT_TRUE(id.ok());

  auto state = manager.QueryState(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, PlanState::kQueued);
  // Not terminal yet: FailedPrecondition, and the call does not park.
  auto early = manager.TryGetOutcome(*id);
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.QueryState(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.TryGetOutcome(999).status().code(),
            StatusCode::kNotFound);

  manager.Start();
  manager.Wait(*id);
  auto done = manager.TryGetOutcome(*id);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_EQ(done->state, PlanState::kDone);
  manager.Drain();
}

TEST_F(SchedSimTest, CancelAllQueuedPullsBackUnstartedPlans) {
  WorkloadManagerOptions options = SimManagerOptions();
  options.defer_start = true;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  std::vector<int64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = manager.Submit(
        MakeSubmission(StrCat("pull", i), 1024, 10.0, 0.1));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const std::vector<int64_t> cancelled = manager.CancelAllQueued();
  EXPECT_EQ(cancelled.size(), 3u);
  EXPECT_EQ(manager.queued_plans(), 0);
  for (const int64_t id : ids) {
    auto outcome = manager.TryGetOutcome(id);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->state, PlanState::kCancelled);
    // A Wait after the pull-back returns immediately with the same state.
    EXPECT_EQ(manager.Wait(id).state, PlanState::kCancelled);
  }
  manager.Drain();
  EXPECT_EQ(manager.metrics()->counter("sched.cancelled")->Value(), 3);
}

TEST_F(SchedSimTest, DrainWithInFlightPlansFinishesThem) {
  // Start the queue, then immediately pull back whatever has not been
  // dispatched: the drain must still run the in-flight plans to a clean
  // terminal state and return every slot.
  WorkloadManagerOptions options = SimManagerOptions();
  options.defer_start = true;
  options.max_concurrent_plans = 1;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  const int kPlans = 6;
  for (int i = 0; i < kPlans; ++i) {
    ASSERT_TRUE(
        manager.Submit(MakeSubmission(StrCat("d", i), 1024, 10.0, 0.1))
            .ok());
  }
  manager.Start();
  // Let the worker dispatch at least the head of the queue before pulling
  // the rest back, so the drain really has in-flight work to finish.
  while (manager.queued_plans() == kPlans) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<int64_t> pulled = manager.CancelAllQueued();
  const std::vector<PlanOutcome> outcomes = manager.Drain();
  ASSERT_EQ(outcomes.size(), static_cast<size_t>(kPlans));
  int done = 0, cancelled = 0;
  for (const PlanOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.state == PlanState::kDone ||
                outcome.state == PlanState::kCancelled)
        << PlanStateName(outcome.state);
    (outcome.state == PlanState::kDone ? done : cancelled)++;
  }
  EXPECT_EQ(done + cancelled, kPlans);
  // Everything pulled back was really cancelled, and the dispatched
  // remainder completed.
  EXPECT_EQ(cancelled, static_cast<int>(pulled.size()));
  EXPECT_GE(done, 1);  // the dispatched head of the queue ran
  EXPECT_EQ(manager.slot_share(), manager.total_slots());
}

TEST_F(SchedSimTest, CancelRacingDrainStaysConsistent) {
  WorkloadManagerOptions options = SimManagerOptions();
  options.defer_start = true;
  options.max_concurrent_plans = 2;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  std::vector<int64_t> ids;
  for (int i = 0; i < 10; ++i) {
    auto id = manager.Submit(
        MakeSubmission(StrCat("race", i), 1024, 10.0, 0.1));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  manager.Start();
  std::thread canceller([&] {
    // Individual cancels racing the drain's queue pull-back: every verdict
    // is acceptable (cancelled it first, lost the race to the pull-back,
    // or the plan already finished) — but never a crash or a hang.
    for (size_t i = 0; i < ids.size(); i += 2) {
      const Status st = manager.Cancel(ids[i]);
      EXPECT_TRUE(st.ok() ||
                  st.code() == StatusCode::kFailedPrecondition ||
                  st.code() == StatusCode::kNotFound)
          << st;
    }
  });
  manager.CancelAllQueued();
  canceller.join();
  const std::vector<PlanOutcome> outcomes = manager.Drain();
  ASSERT_EQ(outcomes.size(), ids.size());
  for (const PlanOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.state == PlanState::kDone ||
                outcome.state == PlanState::kCancelled)
        << PlanStateName(outcome.state);
  }
  EXPECT_EQ(manager.slot_share(), manager.total_slots());
}

// ---------------------------------------------------------------------------
// ElasticFleetController against a live manager
// ---------------------------------------------------------------------------

TEST_F(SchedSimTest, FleetControllerScalesPoolWithBacklog) {
  WorkloadManagerOptions options = SimManagerOptions();
  options.defer_start = true;  // hold the backlog steady while we tick
  options.initial_slots = 2;
  WorkloadManager manager(&store_, engine_.get(), &cost_, options);
  EXPECT_EQ(manager.total_slots(), 2);

  ElasticControllerOptions controller_options;
  controller_options.policy.min_machines = 1;
  controller_options.policy.max_machines = 8;
  controller_options.policy.target_backlog_seconds_per_machine = 120.0;
  controller_options.slots_per_machine = 2;
  ElasticFleetController controller(FleetState{1, 0}, controller_options);

  // An hour of queued work: the controller must buy machines and grow the
  // manager's slot total to match.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        manager.Submit(MakeSubmission(StrCat("b", i), 1024, 1800.0, 0.5))
            .ok());
  }
  ASSERT_GT(manager.BacklogSeconds(), 0.0);
  const FleetDecision grow = controller.Tick(&manager);
  EXPECT_TRUE(grow.scaled_out);
  EXPECT_GT(grow.fleet.machines, 1);
  EXPECT_EQ(manager.total_slots(),
            grow.fleet.machines * controller_options.slots_per_machine);
  EXPECT_EQ(controller.slots(), manager.total_slots());
  EXPECT_EQ(manager.slot_share(), manager.total_slots());  // none running

  // Backlog gone: the next tick shrinks back to the floor.
  manager.CancelAllQueued();
  manager.Drain();
  EXPECT_EQ(manager.BacklogSeconds(), 0.0);
  const FleetDecision shrink = controller.Tick(&manager);
  EXPECT_TRUE(shrink.scaled_in);
  EXPECT_EQ(shrink.fleet.machines, 1);
  EXPECT_EQ(manager.total_slots(), 2);
  EXPECT_EQ(manager.slot_share(), 2);
}

}  // namespace
}  // namespace cumulon
