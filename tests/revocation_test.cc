#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/machine.h"
#include "cloud/revocation.h"
#include "cluster/real_engine.h"
#include "cluster/sim_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/dense_matrix.h"
#include "matrix/tile_store.h"
#include "matrix/tiled_matrix.h"
#include "obs/metrics.h"
#include "opt/elastic.h"
#include "opt/predictor.h"
#include "sched/elastic.h"
#include "sched/workload_manager.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// RevocationSchedule
// ---------------------------------------------------------------------------

TEST(RevocationScheduleTest, ScriptedKeepsEarliestEventPerMachine) {
  RevocationSchedule s = RevocationSchedule::Scripted(
      {{1, 50.0}, {2, 30.0}, {1, 20.0}, {-1, 5.0}});
  ASSERT_EQ(s.events().size(), 2u);
  // Sorted by time, one event per machine, earliest wins.
  EXPECT_EQ(s.events()[0].machine, 1);
  EXPECT_DOUBLE_EQ(s.events()[0].time_seconds, 20.0);
  EXPECT_EQ(s.events()[1].machine, 2);
  EXPECT_DOUBLE_EQ(s.events()[1].time_seconds, 30.0);
  EXPECT_DOUBLE_EQ(s.RevokedAtSeconds(1), 20.0);
  EXPECT_DOUBLE_EQ(s.RevokedAtSeconds(2), 30.0);
  EXPECT_EQ(s.RevokedAtSeconds(0), RevocationSchedule::kNever);
  EXPECT_EQ(s.RevokedAtSeconds(99), RevocationSchedule::kNever);
}

TEST(RevocationScheduleTest, SampleIsDeterministicInTheSeed) {
  const double hazard = 2.0;  // revocations per hour: most machines die
  RevocationSchedule a =
      RevocationSchedule::Sample(42, 8, hazard, 7200.0, /*first=*/2);
  RevocationSchedule b =
      RevocationSchedule::Sample(42, 8, hazard, 7200.0, /*first=*/2);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].machine, b.events()[i].machine);
    EXPECT_DOUBLE_EQ(a.events()[i].time_seconds, b.events()[i].time_seconds);
  }
  EXPECT_FALSE(a.empty());
  for (const RevocationEvent& e : a.events()) {
    EXPECT_GE(e.machine, 2);  // on-demand machines are never sampled
    EXPECT_LT(e.machine, 8);
    EXPECT_GE(e.time_seconds, 0.0);
    EXPECT_LT(e.time_seconds, 7200.0);  // horizon filter
  }
}

TEST(RevocationScheduleTest, SampleZeroHazardIsEmpty) {
  EXPECT_TRUE(RevocationSchedule::Sample(7, 16, 0.0, 3600.0).empty());
}

TEST(RevocationScheduleTest, SampleAllOnDemandIsEmpty) {
  EXPECT_TRUE(
      RevocationSchedule::Sample(7, 4, 10.0, 3600.0, /*first=*/4).empty());
}

// ---------------------------------------------------------------------------
// RevocationController
// ---------------------------------------------------------------------------

TEST(RevocationControllerTest, ClaimFiredIsExactlyOncePerMachine) {
  RevocationController ctrl(
      RevocationSchedule::Scripted({{1, 10.0}, {3, 20.0}}));
  EXPECT_EQ(ctrl.fired_count(), 0);
  EXPECT_TRUE(ctrl.ClaimFired(1));
  EXPECT_FALSE(ctrl.ClaimFired(1));  // already observed
  EXPECT_FALSE(ctrl.ClaimFired(0));  // never revoked
  EXPECT_EQ(ctrl.fired_count(), 1);
  EXPECT_TRUE(ctrl.ClaimFired(3));
  EXPECT_EQ(ctrl.fired_count(), 2);
}

TEST(RevocationControllerTest, IsRevokedAtBoundaryIsInclusive) {
  RevocationController ctrl(RevocationSchedule::Scripted({{0, 10.0}}));
  EXPECT_FALSE(ctrl.IsRevokedAt(0, 9.999));
  EXPECT_TRUE(ctrl.IsRevokedAt(0, 10.0));  // the instant itself is dead
  EXPECT_TRUE(ctrl.IsRevokedAt(0, 11.0));
  EXPECT_FALSE(ctrl.IsRevokedAt(1, 1e12));  // unscheduled machine lives on
}

TEST(RevocationControllerTest, FallbackMachineScansAfterFromAndWraps) {
  RevocationController ctrl(
      RevocationSchedule::Scripted({{1, 0.0}, {2, 0.0}}));
  // From the dying machine 1, the scan skips dead 2 and lands on 3.
  EXPECT_EQ(ctrl.FallbackMachine(1, 1, 4, 5.0), 3);
  // From 3 the scan wraps to 0.
  EXPECT_EQ(ctrl.FallbackMachine(3, 3, 4, 5.0), 0);
  // Before the instants everything is alive.
  EXPECT_EQ(ctrl.FallbackMachine(0, 0, 4, -1.0), 1);
}

TEST(RevocationControllerTest, FallbackMachineSpreadsARevokedMachinesTasks) {
  RevocationController ctrl(RevocationSchedule::Scripted({{3, 0.0}}));
  // Round-robin placement gives machine 3 of 4 the tasks 3, 7, 11, ...;
  // they go round-robin over the survivors 0, 1 and 2.
  std::vector<int> landed;
  for (size_t task = 3; task < 32; task += 4) {
    landed.push_back(ctrl.FallbackMachine(3, task, 4, 1.0));
  }
  EXPECT_EQ(landed, (std::vector<int>{0, 1, 2, 0, 1, 2, 0, 1}));
}

TEST(RevocationControllerTest, FallbackMachineReportsFleetGone) {
  RevocationController ctrl(
      RevocationSchedule::Scripted({{0, 0.0}, {1, 0.0}}));
  EXPECT_EQ(ctrl.FallbackMachine(0, 0, 2, 1.0), -1);
  EXPECT_EQ(ctrl.FallbackMachine(1, 5, 2, 1.0), -1);
}

TEST(RevocationControllerTest, OriginAccumulatesAcrossJobs) {
  RevocationController ctrl(RevocationSchedule::Scripted({{0, 100.0}}));
  EXPECT_DOUBLE_EQ(ctrl.origin_seconds(), 0.0);
  ctrl.AdvanceOrigin(12.5);
  ctrl.AdvanceOrigin(7.5);
  EXPECT_DOUBLE_EQ(ctrl.origin_seconds(), 20.0);
}

// ---------------------------------------------------------------------------
// ElasticProvisioner
// ---------------------------------------------------------------------------

ElasticPolicy TestPolicy() {
  ElasticPolicy policy;
  policy.min_machines = 1;
  policy.max_machines = 8;
  policy.target_backlog_seconds_per_machine = 100.0;
  policy.max_spot_fraction = 0.5;
  return policy;
}

TEST(ElasticProvisionerTest, ScalesOutUnderBacklog) {
  ElasticProvisioner prov(TestPolicy(), 0.65, 0.05);
  FleetDecision d = prov.Replan({1, 0}, /*backlog=*/350.0,
                                /*horizon=*/300.0, /*max_slowdown=*/10.0);
  EXPECT_EQ(d.fleet.machines, 4);  // ceil(350 / 100)
  EXPECT_TRUE(d.scaled_out);
  EXPECT_FALSE(d.scaled_in);
}

TEST(ElasticProvisionerTest, BacklogTargetIsClampedToPolicyMax) {
  ElasticProvisioner prov(TestPolicy(), 0.65, 0.05);
  FleetDecision d = prov.Replan({2, 0}, 1e9, 300.0, 10.0);
  EXPECT_EQ(d.fleet.machines, 8);
}

TEST(ElasticProvisionerTest, ScalesInWhenIdle) {
  ElasticProvisioner prov(TestPolicy(), 0.65, 0.05);
  FleetDecision d = prov.Replan({6, 2}, /*backlog=*/0.0, 300.0, 10.0);
  EXPECT_EQ(d.fleet.machines, 1);
  EXPECT_TRUE(d.scaled_in);
  EXPECT_FALSE(d.scaled_out);
}

TEST(ElasticProvisionerTest, IdleFleetKeptWarmWhenScaleInDisabled) {
  ElasticPolicy policy = TestPolicy();
  policy.scale_in_when_idle = false;
  ElasticProvisioner prov(policy, 0.65, 0.05);
  FleetDecision d = prov.Replan({6, 2}, 0.0, 300.0, 10.0);
  EXPECT_EQ(d.fleet.machines, 6);
  EXPECT_FALSE(d.scaled_in);
}

TEST(ElasticProvisionerTest, FreeDiscountFillsTheSpotQuota) {
  // With zero hazard the rework slowdown is 1.0, so every discounted
  // machine is pure profit up to the max_spot_fraction bound.
  ElasticProvisioner prov(TestPolicy(), 0.65, /*hazard=*/0.0);
  FleetDecision d = prov.Replan({4, 0}, 400.0, 300.0, 10.0);
  EXPECT_EQ(d.fleet.machines, 4);
  EXPECT_EQ(d.fleet.spot_machines, 2);  // floor(4 * 0.5)
  EXPECT_EQ(d.fleet.on_demand_machines(), 2);
  EXPECT_DOUBLE_EQ(d.expected_slowdown, 1.0);
}

TEST(ElasticProvisionerTest, TightSlowdownCapForcesOnDemand) {
  // Deadline pressure: any positive hazard makes a spot mix carry a
  // slowdown strictly above 1.0, so a cap of 1.0 rules them all out.
  ElasticProvisioner prov(TestPolicy(), 0.65, /*hazard=*/1.0);
  FleetDecision d = prov.Replan({4, 0}, 400.0, 3600.0, /*max_slowdown=*/1.0);
  EXPECT_EQ(d.fleet.spot_machines, 0);
  EXPECT_DOUBLE_EQ(d.expected_slowdown, 1.0);
}

TEST(ElasticProvisionerTest, RuinousHazardDegeneratesToOnDemand) {
  // When the expected rework eats the discount, all-on-demand is the
  // cheapest rate even though spot machines are allowed.
  ElasticProvisioner prov(TestPolicy(), /*discount=*/0.10,
                          /*hazard=*/50.0);
  FleetDecision d = prov.Replan({4, 0}, 400.0, 3600.0, 10.0);
  EXPECT_EQ(d.fleet.spot_machines, 0);
}

TEST(ElasticProvisionerTest, EmitsReplanMetrics) {
  MetricsRegistry metrics;
  ElasticProvisioner prov(TestPolicy(), 0.65, 0.0, &metrics);
  (void)prov.Replan({1, 0}, 350.0, 300.0, 10.0);
  (void)prov.Replan({4, 2}, 0.0, 300.0, 10.0);
  EXPECT_EQ(metrics.counter("sched.replan.decisions")->Value(), 2);
  EXPECT_EQ(metrics.counter("sched.replan.scale_out")->Value(), 1);
  EXPECT_EQ(metrics.counter("sched.replan.scale_in")->Value(), 1);
  EXPECT_EQ(metrics.gauge("sched.replan.fleet_machines")->Value(), 1);
  EXPECT_EQ(metrics.gauge("sched.replan.fleet_spot")->Value(), 0);
}

// ---------------------------------------------------------------------------
// Sim engine: mid-job revocation
// ---------------------------------------------------------------------------

JobSpec MakeSimJob(int tasks, double cpu_seconds) {
  JobSpec job;
  job.name = "sim";
  for (int i = 0; i < tasks; ++i) {
    Task t;
    t.name = StrCat("t", i);
    t.cost.cpu_seconds_ref = cpu_seconds;
    job.tasks.push_back(std::move(t));
  }
  return job;
}

TEST(SimRevocationTest, RevocationKillsInFlightWorkAndSlowsTheJob) {
  ClusterConfig cluster{MachineProfile{}, 4, 2};
  SimEngineOptions clean;
  clean.task_startup_seconds = 0.0;

  SimEngine clean_engine(cluster, clean);
  auto clean_stats = clean_engine.RunJob(MakeSimJob(32, 10.0));
  ASSERT_TRUE(clean_stats.ok()) << clean_stats.status();

  // Machine 3 dies one second in: its in-flight attempts are killed and
  // re-placed on the survivors.
  RevocationController ctrl(RevocationSchedule::Scripted({{3, 1.0}}));
  SimEngineOptions faulted = clean;
  faulted.revocation = &ctrl;
  MetricsRegistry metrics;
  faulted.metrics = &metrics;
  SimEngine faulted_engine(cluster, faulted);
  auto stats = faulted_engine.RunJob(MakeSimJob(32, 10.0));
  ASSERT_TRUE(stats.ok()) << stats.status();

  EXPECT_EQ(stats->revoked_machines, 1);
  EXPECT_GE(stats->rescheduled_tasks, 1);
  EXPECT_GT(stats->revoked_wasted_seconds, 0.0);
  EXPECT_GT(stats->duration_seconds, clean_stats->duration_seconds);
  // Nothing ran on the dead machine after its instant.
  for (const TaskRunInfo& run : stats->task_runs) {
    if (run.machine == 3) {
      EXPECT_LE(run.start_seconds + run.duration_seconds, 1.0 + 1e-9);
    }
  }
  EXPECT_EQ(metrics.counter("cluster.revoked.machines")->Value(), 1);
  EXPECT_GE(metrics.counter("cluster.revoked.tasks")->Value(), 1);
}

TEST(RevocationPlacementTest, BothEnginesSpreadARevokedMachinesTasks) {
  // Machine 3 of 4 x 2 is revoked from the start, so every task placed on
  // it moves before its first attempt. Both engines relocate by
  // FallbackMachine, so each task lands on the same survivor in both, and
  // machine 3's tasks spread over the survivors.
  const ClusterConfig cluster{MachineProfile{}, 4, 2};
  constexpr int kTasks = 32;
  JobSpec job = MakeSimJob(kTasks, 0.01);
  for (Task& task : job.tasks) {
    task.work = [](int) { return Status::OK(); };
  }
  const std::vector<int> placed = PlaceTasks(
      job, cluster.num_machines, cluster.slots_per_machine, true);

  RevocationController sim_ctrl(RevocationSchedule::Scripted({{3, 0.0}}));
  SimEngineOptions sim_options;
  sim_options.revocation = &sim_ctrl;
  SimEngine sim(cluster, sim_options);
  auto sim_stats = sim.RunJob(job);
  ASSERT_TRUE(sim_stats.ok()) << sim_stats.status();

  RevocationController real_ctrl(RevocationSchedule::Scripted({{3, 0.0}}));
  RealEngineOptions real_options;
  real_options.revocation = &real_ctrl;
  RealEngine real(cluster, real_options);
  auto real_stats = real.RunJob(job);
  ASSERT_TRUE(real_stats.ok()) << real_stats.status();

  ASSERT_EQ(sim_stats->task_runs.size(), static_cast<size_t>(kTasks));
  ASSERT_EQ(real_stats->task_runs.size(), static_cast<size_t>(kTasks));
  std::set<int> survivors;
  int moved = 0;
  for (int t = 0; t < kTasks; ++t) {
    const int machine = sim_stats->task_runs[t].machine;
    EXPECT_EQ(real_stats->task_runs[t].machine, machine) << "task " << t;
    EXPECT_NE(machine, 3) << "task " << t;
    if (placed[t] == 3) {
      ++moved;
      survivors.insert(machine);
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_GE(survivors.size(), 2u);
}

TEST(SimRevocationTest, SeededScheduleReplaysBitIdentically) {
  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RevocationSchedule schedule =
      RevocationSchedule::Sample(99, 4, /*hazard=*/60.0, 600.0, /*first=*/1);
  ASSERT_FALSE(schedule.empty());

  auto run_once = [&](JobStats* out) {
    RevocationController ctrl(schedule);
    SimEngineOptions options;
    options.task_startup_seconds = 0.0;
    options.noise_sigma = 0.3;  // exercise the noise-multiplier replay
    options.task_failure_probability = 0.05;
    options.revocation = &ctrl;
    SimEngine engine(cluster, options);
    auto stats = engine.RunJob(MakeSimJob(48, 5.0));
    ASSERT_TRUE(stats.ok()) << stats.status();
    *out = std::move(stats).value();
  };

  JobStats a, b;
  run_once(&a);
  run_once(&b);
  EXPECT_DOUBLE_EQ(a.duration_seconds, b.duration_seconds);
  EXPECT_EQ(a.rescheduled_tasks, b.rescheduled_tasks);
  EXPECT_DOUBLE_EQ(a.revoked_wasted_seconds, b.revoked_wasted_seconds);
  ASSERT_EQ(a.task_runs.size(), b.task_runs.size());
  for (size_t i = 0; i < a.task_runs.size(); ++i) {
    EXPECT_EQ(a.task_runs[i].machine, b.task_runs[i].machine);
    EXPECT_EQ(a.task_runs[i].slot, b.task_runs[i].slot);
    EXPECT_EQ(a.task_runs[i].attempts, b.task_runs[i].attempts);
    EXPECT_DOUBLE_EQ(a.task_runs[i].start_seconds,
                     b.task_runs[i].start_seconds);
    EXPECT_DOUBLE_EQ(a.task_runs[i].duration_seconds,
                     b.task_runs[i].duration_seconds);
  }
}

TEST(SimRevocationTest, EmptyScheduleMatchesNullController) {
  // Determinism guard: wiring the controller in with nothing scheduled
  // must not change placement, timing, or RNG consumption.
  ClusterConfig cluster{MachineProfile{}, 3, 2};
  SimEngineOptions base;
  base.noise_sigma = 0.4;
  base.task_failure_probability = 0.1;

  SimEngine null_engine(cluster, base);
  auto null_stats = null_engine.RunJob(MakeSimJob(24, 2.0));
  ASSERT_TRUE(null_stats.ok()) << null_stats.status();

  RevocationController ctrl(RevocationSchedule::Scripted({}));
  SimEngineOptions wired = base;
  wired.revocation = &ctrl;
  SimEngine wired_engine(cluster, wired);
  auto wired_stats = wired_engine.RunJob(MakeSimJob(24, 2.0));
  ASSERT_TRUE(wired_stats.ok()) << wired_stats.status();

  EXPECT_DOUBLE_EQ(null_stats->duration_seconds,
                   wired_stats->duration_seconds);
  EXPECT_EQ(wired_stats->revoked_machines, 0);
  EXPECT_EQ(wired_stats->rescheduled_tasks, 0);
  ASSERT_EQ(null_stats->task_runs.size(), wired_stats->task_runs.size());
  for (size_t i = 0; i < null_stats->task_runs.size(); ++i) {
    EXPECT_EQ(null_stats->task_runs[i].machine,
              wired_stats->task_runs[i].machine);
    EXPECT_DOUBLE_EQ(null_stats->task_runs[i].start_seconds,
                     wired_stats->task_runs[i].start_seconds);
  }
}

TEST(SimRevocationTest, WholeFleetRevokedFailsTheJob) {
  RevocationController ctrl(
      RevocationSchedule::Scripted({{0, 0.0}, {1, 0.0}}));
  SimEngineOptions options;
  options.revocation = &ctrl;
  SimEngine engine(ClusterConfig{MachineProfile{}, 2, 2}, options);
  auto stats = engine.RunJob(MakeSimJob(4, 1.0));
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("whole fleet revoked"),
            std::string::npos);
}

TEST(SimRevocationTest, OriginAdvancesByEachJobsMakespan) {
  // The schedule clock is cumulative engine time: a machine revoked at
  // t=8 survives a 5-second job and dies during the next one.
  RevocationController ctrl(RevocationSchedule::Scripted({{1, 8.0}}));
  SimEngineOptions options;
  options.task_startup_seconds = 0.0;
  options.revocation = &ctrl;
  SimEngine engine(ClusterConfig{MachineProfile{}, 2, 1}, options);

  auto first = engine.RunJob(MakeSimJob(2, 5.0));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->revoked_machines, 0);
  EXPECT_DOUBLE_EQ(ctrl.origin_seconds(), first->duration_seconds);

  auto second = engine.RunJob(MakeSimJob(2, 5.0));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->revoked_machines, 1);
  EXPECT_EQ(ctrl.fired_count(), 1);
}

// ---------------------------------------------------------------------------
// Real engine: the example programs survive seeded revocations
// bit-identically, across scheduling policies
// ---------------------------------------------------------------------------

constexpr int64_t kTile = 8;

void BindInput(const std::string& name, const DenseMatrix& dense,
               TileStore* store,
               std::map<std::string, TiledMatrix>* bindings) {
  TiledMatrix m{name,
                TileLayout::Square(dense.rows(), dense.cols(), kTile)};
  ASSERT_TRUE(StoreDense(dense, m, store).ok());
  bindings->insert_or_assign(name, m);
}

DenseMatrix GaussianMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::Gaussian(rows, cols, &rng);
}

DenseMatrix PositiveMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) m.Set(r, c, rng.NextDouble() + 0.5);
  }
  return m;
}

DenseMatrix ColumnStochastic(int64_t n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(n, n);
  for (int64_t c = 0; c < n; ++c) {
    double sum = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      const double v = rng.NextDouble() + 0.01;
      m.Set(r, c, v);
      sum += v;
    }
    for (int64_t r = 0; r < n; ++r) m.Set(r, c, m.At(r, c) / sum);
  }
  return m;
}

DenseMatrix BinaryLabels(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, 1);
  for (int64_t r = 0; r < rows; ++r) {
    m.Set(r, 0, rng.NextDouble() < 0.5 ? 1.0 : 0.0);
  }
  return m;
}

/// One workload case: a program, its input builder, and the assignment
/// targets whose final matrices the test compares bit-for-bit.
struct E8Case {
  std::string name;
  Program program;
  std::vector<std::string> targets;
};

std::vector<E8Case> MainCases() {
  std::vector<E8Case> cases;
  RsvdSpec rsvd;
  rsvd.m = 24;
  rsvd.n = 16;
  rsvd.l = 8;
  cases.push_back({"rsvd", BuildRsvd1(rsvd), {"Y"}});
  GnmfSpec gnmf;
  gnmf.m = 16;
  gnmf.n = 16;
  gnmf.k = 8;
  cases.push_back({"gnmf", BuildGnmfIteration(gnmf), {"H", "W"}});
  PageRankSpec pr;
  pr.n = 16;
  cases.push_back({"pagerank", BuildPageRankIteration(pr), {"p"}});
  LinRegSpec linreg;
  linreg.samples = 24;
  linreg.features = 8;
  cases.push_back({"linreg", BuildLinRegStep(linreg), {"w"}});
  return cases;
}

void BindMainInputs(TileStore* store,
                    std::map<std::string, TiledMatrix>* bindings) {
  BindInput("A", GaussianMatrix(24, 16, 201), store, bindings);
  BindInput("Omega", GaussianMatrix(16, 8, 202), store, bindings);
  BindInput("V", PositiveMatrix(16, 16, 203), store, bindings);
  BindInput("W", PositiveMatrix(16, 8, 204), store, bindings);
  BindInput("H", PositiveMatrix(8, 16, 205), store, bindings);
  BindInput("M", ColumnStochastic(16, 206), store, bindings);
  BindInput("p", DenseMatrix::Constant(16, 1, 1.0 / 16.0), store, bindings);
  BindInput("X", GaussianMatrix(24, 8, 207), store, bindings);
  BindInput("w", GaussianMatrix(8, 1, 208), store, bindings);
  BindInput("y", GaussianMatrix(24, 1, 209), store, bindings);
}

/// LogReg shares input names (X, w, y) with LinReg, so it runs in its own
/// store — same fleet, same controller.
E8Case LogRegCase() {
  LogRegSpec spec;
  spec.samples = 24;
  spec.features = 8;
  return {"logreg", BuildLogRegStep(spec), {"w"}};
}

void BindLogRegInputs(TileStore* store,
                      std::map<std::string, TiledMatrix>* bindings) {
  BindInput("X", GaussianMatrix(24, 8, 207), store, bindings);
  BindInput("w", GaussianMatrix(8, 1, 208), store, bindings);
  BindInput("y", BinaryLabels(24, 210), store, bindings);
}

/// Runs the given cases through one WorkloadManager over a shared store
/// and engine, and loads every target's final dense matrix.
void RunCasesThroughManager(const std::vector<E8Case>& cases,
                            void (*bind)(TileStore*,
                                         std::map<std::string, TiledMatrix>*),
                            SchedPolicy policy, RevocationController* ctrl,
                            std::map<std::string, DenseMatrix>* outputs) {
  InMemoryTileStore store;
  std::map<std::string, TiledMatrix> bindings;
  bind(&store, &bindings);

  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RealEngineOptions engine_options;
  engine_options.revocation = ctrl;
  RealEngine engine(cluster, engine_options);
  TileOpCostModel cost;
  WorkloadManagerOptions options;
  options.policy = policy;
  options.max_concurrent_plans = 2;
  WorkloadManager manager(&store, &engine, &cost, options);

  // target name -> the tiled matrix it was materialized as
  std::vector<std::pair<std::string, TiledMatrix>> wanted;
  for (const E8Case& c : cases) {
    LoweringOptions lowering;
    lowering.tile_dim = kTile;
    lowering.temp_prefix = c.name + "_tmp";  // disjoint temp namespaces
    auto lowered = Lower(OptimizeProgram(c.program), bindings, lowering);
    ASSERT_TRUE(lowered.ok()) << c.name << ": " << lowered.status();
    for (const std::string& target : c.targets) {
      wanted.emplace_back(c.name + "/" + target,
                          lowered->outputs.at(target));
    }
    Submission submission;
    submission.name = c.name;
    submission.plan = std::move(lowered->plan);
    auto id = manager.Submit(std::move(submission));
    ASSERT_TRUE(id.ok()) << c.name << ": " << id.status();
  }
  const std::vector<PlanOutcome> outcomes = manager.Drain();
  for (const PlanOutcome& outcome : outcomes) {
    ASSERT_EQ(outcome.state, PlanState::kDone)
        << outcome.name << ": " << outcome.status;
  }
  for (const auto& [key, tiled] : wanted) {
    auto dense = LoadDense(tiled, &store);
    ASSERT_TRUE(dense.ok()) << key << ": " << dense.status();
    outputs->insert_or_assign(key, std::move(dense).value());
  }
}

/// The whole example-program suite under one fault plan: the four
/// disjoint-input programs share a manager, LogReg follows in its own
/// store. `ctrl` may be null (the clean reference).
void RunE8Workload(SchedPolicy policy, RevocationController* ctrl,
                   std::map<std::string, DenseMatrix>* outputs) {
  RunCasesThroughManager(MainCases(), &BindMainInputs, policy, ctrl, outputs);
  if (::testing::Test::HasFatalFailure()) return;
  RunCasesThroughManager({LogRegCase()}, &BindLogRegInputs, policy, ctrl,
                         outputs);
}

TEST(RevocationE8Test, SeededRevocationsPreserveResultsBitForBit) {
  // Clean reference: no fault plan, FIFO.
  std::map<std::string, DenseMatrix> reference;
  RunE8Workload(SchedPolicy::kFifo, nullptr, &reference);
  ASSERT_FALSE(reference.empty());

  const SchedPolicy policies[] = {SchedPolicy::kFifo, SchedPolicy::kFairShare,
                                  SchedPolicy::kEdf};
  for (SchedPolicy policy : policies) {
    SCOPED_TRACE(StrCat("policy=", SchedPolicyName(policy)));
    // Machine 1 is gone before the first task; machine 3 dies almost
    // immediately after the wall clock arms. Both losses relocate work
    // onto the two survivors.
    RevocationController ctrl(RevocationSchedule::Scripted(
        {{1, 0.0}, {3, 0.01}}));
    std::map<std::string, DenseMatrix> faulted;
    RunE8Workload(policy, &ctrl, &faulted);
    if (::testing::Test::HasFatalFailure()) return;

    EXPECT_GE(ctrl.fired_count(), 1);
    ASSERT_EQ(faulted.size(), reference.size());
    for (const auto& [key, expected] : reference) {
      auto it = faulted.find(key);
      ASSERT_NE(it, faulted.end()) << key;
      auto diff = expected.MaxAbsDiff(it->second);
      ASSERT_TRUE(diff.ok()) << key << ": " << diff.status();
      EXPECT_EQ(diff.value(), 0.0) << key << " diverged under revocation";
    }
  }
}

TEST(RevocationE8Test, RealEngineCountsRevokedMachines) {
  // The losses are folded into the executing plans' stats exactly once.
  RevocationController ctrl(
      RevocationSchedule::Scripted({{1, 0.0}, {2, 0.0}}));
  InMemoryTileStore store;
  std::map<std::string, TiledMatrix> bindings;
  BindMainInputs(&store, &bindings);

  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RealEngineOptions engine_options;
  engine_options.revocation = &ctrl;
  MetricsRegistry metrics;
  engine_options.metrics = &metrics;
  RealEngine engine(cluster, engine_options);
  TileOpCostModel cost;
  Executor executor(&store, &engine, &cost, ExecutorOptions{});

  LoweringOptions lowering;
  lowering.tile_dim = kTile;
  RsvdSpec spec;
  spec.m = 24;
  spec.n = 16;
  spec.l = 8;
  auto lowered =
      Lower(OptimizeProgram(BuildRsvd1(spec)), bindings, lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  auto stats = executor.Run(lowered->plan);
  ASSERT_TRUE(stats.ok()) << stats.status();

  EXPECT_EQ(stats->revoked_machines, 2);
  EXPECT_EQ(ctrl.fired_count(), 2);
  EXPECT_EQ(metrics.counter("cluster.revoked.machines")->Value(), 2);
  // A second plan on the same controller observes nothing new.
  auto again = executor.Run(lowered->plan);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->revoked_machines, 0);
  EXPECT_EQ(ctrl.fired_count(), 2);
}

TEST(RevocationE8Test, RealEngineWholeFleetRevokedFailsTheJob) {
  RevocationController ctrl(
      RevocationSchedule::Scripted({{0, 0.0}, {1, 0.0}}));
  RealEngineOptions options;
  options.revocation = &ctrl;
  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 1}, options);
  JobSpec job;
  Task t;
  t.name = "doomed";
  t.work = [](int) { return Status::OK(); };
  job.tasks.push_back(std::move(t));
  auto stats = engine.RunJob(job);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("whole fleet revoked"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// RunSpotWorkload: the online re-planning loop
// ---------------------------------------------------------------------------

SpotSubmission TinyLinReg(const std::string& name) {
  LinRegSpec spec;
  spec.samples = 64;
  spec.features = 16;
  SpotSubmission s;
  s.name = name;
  s.spec.program = BuildLinRegStep(spec);
  s.spec.inputs = {
      TiledMatrix{"X", TileLayout::Square(spec.samples, spec.features, 8)},
      TiledMatrix{"w", TileLayout::Square(spec.features, 1, 8)},
      TiledMatrix{"y", TileLayout::Square(spec.samples, 1, 8)},
  };
  return s;
}

SpotWorkloadOptions TinySpotOptions() {
  SpotWorkloadOptions options;
  options.machine = MachineProfile{};
  options.policy.min_machines = 2;
  options.policy.max_machines = 4;
  options.predictor.lowering.tile_dim = 8;
  options.billing.quantum_seconds = 1.0;
  options.billing.minimum_seconds = 0.0;
  options.spot_hazard_per_hour = 0.02;
  return options;
}

TEST(SpotWorkloadTest, DeterministicInSeedAndArrivals) {
  std::vector<SpotSubmission> submissions = {TinyLinReg("a"), TinyLinReg("b"),
                                             TinyLinReg("c")};
  auto first = RunSpotWorkload(submissions, TinySpotOptions());
  auto second = RunSpotWorkload(submissions, TinySpotOptions());
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_DOUBLE_EQ(first->total_dollars, second->total_dollars);
  EXPECT_DOUBLE_EQ(first->makespan_seconds, second->makespan_seconds);
  EXPECT_EQ(first->revocations, second->revocations);
  ASSERT_EQ(first->outcomes.size(), second->outcomes.size());
  for (size_t i = 0; i < first->outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(first->outcomes[i].dollars,
                     second->outcomes[i].dollars);
    EXPECT_DOUBLE_EQ(first->outcomes[i].spot_price_multiplier,
                     second->outcomes[i].spot_price_multiplier);
  }
}

TEST(SpotWorkloadTest, SpotMixUndercutsStaticOnDemand) {
  std::vector<SpotSubmission> submissions = {TinyLinReg("a"), TinyLinReg("b"),
                                             TinyLinReg("c")};
  SpotWorkloadOptions spot = TinySpotOptions();
  SpotWorkloadOptions on_demand = TinySpotOptions();
  on_demand.allow_spot = false;
  auto with_spot = RunSpotWorkload(submissions, spot);
  auto static_run = RunSpotWorkload(submissions, on_demand);
  ASSERT_TRUE(with_spot.ok()) << with_spot.status();
  ASSERT_TRUE(static_run.ok()) << static_run.status();
  ASSERT_EQ(with_spot->admitted, 3);
  ASSERT_EQ(static_run->admitted, 3);
  EXPECT_LT(with_spot->total_dollars, static_run->total_dollars);
}

TEST(SpotWorkloadTest, BudgetAdmissionRejects) {
  SpotSubmission broke = TinyLinReg("broke");
  broke.budget_dollars = 1e-9;
  auto result = RunSpotWorkload({broke}, TinySpotOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->admitted, 0);
  EXPECT_EQ(result->rejected, 1);
  ASSERT_EQ(result->outcomes.size(), 1u);
  EXPECT_FALSE(result->outcomes[0].admitted);
  EXPECT_NE(result->outcomes[0].rejection.find("budget"),
            std::string::npos);
}

TEST(SpotWorkloadTest, DeadlineAdmissionRejects) {
  SpotSubmission late = TinyLinReg("late");
  late.deadline_seconds = 1e-6;
  auto result = RunSpotWorkload({late}, TinySpotOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rejected, 1);
  ASSERT_EQ(result->outcomes.size(), 1u);
  EXPECT_NE(result->outcomes[0].rejection.find("deadline"),
            std::string::npos);
}

}  // namespace
}  // namespace cumulon
