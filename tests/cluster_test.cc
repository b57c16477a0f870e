#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "cluster/cluster_config.h"
#include "cluster/real_engine.h"
#include "cluster/sim_engine.h"
#include "common/rng.h"
#include "common/strings.h"

namespace cumulon {
namespace {

MachineProfile TestMachine() {
  MachineProfile m;
  m.name = "test";
  m.cores = 2;
  m.cpu_gflops = 2.0;
  m.disk_mbps = 100.0;  // 1e8 bytes/s
  m.net_mbps = 50.0;    // 5e7 bytes/s
  m.price_per_hour = 0.1;
  return m;
}

SimEngineOptions NoOverheadOptions() {
  SimEngineOptions o;
  o.task_startup_seconds = 0.0;
  o.noise_sigma = 0.0;
  o.replication = 1;
  return o;
}

Task MakeTask(double cpu_ref, int64_t read = 0, int64_t write = 0) {
  Task t;
  t.cost.cpu_seconds_ref = cpu_ref;
  t.cost.bytes_read = read;
  t.cost.bytes_written = write;
  return t;
}

TEST(ClusterConfigTest, TotalSlotsAndToString) {
  ClusterConfig c{TestMachine(), 4, 3};
  EXPECT_EQ(c.total_slots(), 12);
  EXPECT_EQ(c.ToString(), "4xtest (3 slots/machine)");
}

// ---------------------------------------------------------------------------
// SimEngine task-duration model
// ---------------------------------------------------------------------------

TEST(SimEngineTest, CpuOnlyTaskScalesWithMachineSpeed) {
  ClusterConfig c{TestMachine(), 1, 1};
  SimEngine engine(c, NoOverheadOptions());
  // 4 reference-seconds on a 2 GFLOP/s machine with 1 slot on 2 cores.
  TaskCost cost;
  cost.cpu_seconds_ref = 4.0;
  EXPECT_DOUBLE_EQ(engine.TaskDuration(cost, true), 2.0);
}

TEST(SimEngineTest, SlotOversubscriptionSlowsCpu) {
  ClusterConfig c{TestMachine(), 1, 4};  // 4 slots on 2 cores
  SimEngine engine(c, NoOverheadOptions());
  TaskCost cost;
  cost.cpu_seconds_ref = 4.0;
  // 4/2 gflops * slowdown 4/2 = 4 seconds.
  EXPECT_DOUBLE_EQ(engine.TaskDuration(cost, true), 4.0);
}

TEST(SimEngineTest, LocalReadUsesDiskBandwidthShare) {
  ClusterConfig c{TestMachine(), 1, 2};
  SimEngine engine(c, NoOverheadOptions());
  TaskCost cost;
  cost.bytes_read = 100'000'000;  // 1e8 bytes over 1e8/2 B/s = 2s
  EXPECT_NEAR(engine.TaskDuration(cost, true), 2.0, 1e-9);
}

TEST(SimEngineTest, RemoteReadUsesNetworkBandwidth) {
  ClusterConfig c{TestMachine(), 2, 2};
  SimEngine engine(c, NoOverheadOptions());
  TaskCost cost;
  cost.bytes_read = 50'000'000;  // 5e7 over 5e7/2 B/s = 2s
  EXPECT_NEAR(engine.TaskDuration(cost, false), 2.0, 1e-9);
}

TEST(SimEngineTest, WriteReplicationAddsNetworkTime) {
  SimEngineOptions o = NoOverheadOptions();
  o.replication = 3;
  ClusterConfig c{TestMachine(), 2, 1};
  SimEngine engine(c, o);
  TaskCost cost;
  cost.bytes_written = 50'000'000;
  // Disk: 5e7/1e8 = 0.5s; network for two extra replicas: 2*5e7/5e7 = 2s.
  EXPECT_NEAR(engine.TaskDuration(cost, true), 2.5, 1e-9);
}

TEST(SimEngineTest, ShuffleBytesAlwaysPayNetwork) {
  ClusterConfig c{TestMachine(), 2, 1};
  SimEngine engine(c, NoOverheadOptions());
  TaskCost cost;
  cost.shuffle_bytes = 50'000'000;
  EXPECT_NEAR(engine.TaskDuration(cost, true), 1.0, 1e-9);
}

TEST(SimEngineTest, SpillBytesPayLocalDisk) {
  ClusterConfig c{TestMachine(), 2, 1};
  SimEngine engine(c, NoOverheadOptions());
  TaskCost cost;
  cost.local_spill_bytes = 100'000'000;
  EXPECT_NEAR(engine.TaskDuration(cost, true), 1.0, 1e-9);
}

TEST(SimEngineTest, StartupOverheadAdds) {
  SimEngineOptions o = NoOverheadOptions();
  o.task_startup_seconds = 1.5;
  ClusterConfig c{TestMachine(), 1, 1};
  SimEngine engine(c, o);
  EXPECT_DOUBLE_EQ(engine.TaskDuration(TaskCost{}, true), 1.5);
}

// ---------------------------------------------------------------------------
// SimEngine scheduling
// ---------------------------------------------------------------------------

TEST(SimEngineTest, PerfectlyParallelTasksFormWaves) {
  ClusterConfig c{TestMachine(), 2, 2};  // 4 slots
  SimEngine engine(c, NoOverheadOptions());
  JobSpec job;
  job.name = "waves";
  for (int i = 0; i < 8; ++i) job.tasks.push_back(MakeTask(4.0));
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  // Each task: 4/2 gflops * slowdown 1 = 2s; 8 tasks on 4 slots = 2 waves.
  EXPECT_EQ(stats->waves, 2);
  EXPECT_NEAR(stats->duration_seconds, 4.0, 1e-9);
  EXPECT_EQ(stats->num_tasks, 8);
  EXPECT_NEAR(stats->total_task_seconds, 16.0, 1e-9);
}

TEST(SimEngineTest, PartialLastWave) {
  ClusterConfig c{TestMachine(), 2, 2};
  SimEngine engine(c, NoOverheadOptions());
  JobSpec job;
  for (int i = 0; i < 5; ++i) job.tasks.push_back(MakeTask(4.0));
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->duration_seconds, 4.0, 1e-9);  // 2 waves of 2s
}

TEST(SimEngineTest, JobRunsOnItsSlotShare) {
  ClusterConfig c{TestMachine(), 4, 2};  // 8 slots
  SimEngine engine(c, NoOverheadOptions());
  JobSpec job;
  job.name = "shared";
  // Each task: 4/2 gflops = 2 s, no preferred machines.
  for (int i = 0; i < 16; ++i) job.tasks.push_back(MakeTask(4.0));

  // A share of 4 slots: 4 lanes, so 16 tasks take 4 task durations.
  const std::atomic<int> share{4};
  job.slot_share = &share;
  auto shared = engine.RunJob(job);
  ASSERT_TRUE(shared.ok()) << shared.status();
  ASSERT_EQ(shared->task_runs.size(), 16u);
  for (const TaskRunInfo& run : shared->task_runs) EXPECT_LT(run.slot, 4);
  EXPECT_NEAR(shared->duration_seconds, 4 * 2.0, 1e-9);

  // No share: the whole cluster's 8 lanes, 2 task durations.
  job.slot_share = nullptr;
  auto whole = engine.RunJob(job);
  ASSERT_TRUE(whole.ok()) << whole.status();
  int widest_lane = 0;
  for (const TaskRunInfo& run : whole->task_runs) {
    widest_lane = std::max(widest_lane, run.slot);
  }
  EXPECT_EQ(widest_lane, 7);
  EXPECT_NEAR(whole->duration_seconds, 2 * 2.0, 1e-9);
}

TEST(SimEngineTest, EmptyJobIsInstant) {
  ClusterConfig c{TestMachine(), 1, 1};
  SimEngine engine(c, NoOverheadOptions());
  auto stats = engine.RunJob(JobSpec{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->duration_seconds, 0.0);
  EXPECT_EQ(stats->waves, 0);
}

TEST(SimEngineTest, MoreMachinesNeverSlower) {
  JobSpec job;
  for (int i = 0; i < 32; ++i) job.tasks.push_back(MakeTask(2.0, 1'000'000));
  double prev = 1e100;
  for (int n : {1, 2, 4, 8}) {
    ClusterConfig c{TestMachine(), n, 2};
    SimEngine engine(c, NoOverheadOptions());
    auto stats = engine.RunJob(job);
    ASSERT_TRUE(stats.ok());
    EXPECT_LE(stats->duration_seconds, prev + 1e-9);
    prev = stats->duration_seconds;
  }
}

TEST(SimEngineTest, LocalityPreferenceHonoredWhenFree) {
  SimEngineOptions o = NoOverheadOptions();
  o.locality_aware = true;
  ClusterConfig c{TestMachine(), 4, 1};
  SimEngine engine(c, o);
  JobSpec job;
  Task t = MakeTask(1.0, 1'000'000);
  t.preferred_machines = {2};
  job.tasks.push_back(t);
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->task_runs[0].machine, 2);
  EXPECT_TRUE(stats->task_runs[0].local);
  EXPECT_EQ(stats->num_non_local_tasks, 0);
}

TEST(SimEngineTest, LocalityIgnoredWhenDisabled) {
  SimEngineOptions o = NoOverheadOptions();
  o.locality_aware = false;
  ClusterConfig c{TestMachine(), 4, 1};
  SimEngine engine(c, o);
  JobSpec job;
  // All tasks prefer machine 3; placed round-robin, most must run
  // elsewhere (remote).
  for (int i = 0; i < 8; ++i) {
    Task t = MakeTask(1.0, 1'000'000);
    t.preferred_machines = {3};
    job.tasks.push_back(t);
  }
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->num_non_local_tasks, 0);
}

TEST(SimEngineTest, PreferredMachineTakesOnlyItsShareOfTheJob) {
  // All eight tasks prefer machine 3 of four single-slot machines. It
  // takes its share of the job, ceil(8 / 4) = 2 tasks, and the other six
  // run elsewhere instead of queueing for it.
  ClusterConfig c{TestMachine(), 4, 1};
  SimEngine engine(c, NoOverheadOptions());
  JobSpec job;
  for (int i = 0; i < 8; ++i) {
    Task t = MakeTask(1.0, 1'000'000);
    t.preferred_machines = {3};
    job.tasks.push_back(t);
  }
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  int on_preferred = 0;
  for (const TaskRunInfo& run : stats->task_runs) {
    EXPECT_EQ(run.local, run.machine == 3);
    if (run.machine == 3) ++on_preferred;
  }
  EXPECT_EQ(on_preferred, 2);
  EXPECT_EQ(stats->num_non_local_tasks, 6);
}

TEST(SimEngineTest, NoiseIsDeterministicPerSeed) {
  SimEngineOptions o = NoOverheadOptions();
  o.noise_sigma = 0.3;
  o.seed = 5;
  ClusterConfig c{TestMachine(), 2, 2};
  JobSpec job;
  for (int i = 0; i < 16; ++i) job.tasks.push_back(MakeTask(1.0));
  SimEngine e1(c, o), e2(c, o);
  auto s1 = e1.RunJob(job), s2 = e2.RunJob(job);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_DOUBLE_EQ(s1->duration_seconds, s2->duration_seconds);
}

TEST(SimEngineTest, NoiseChangesDurations) {
  SimEngineOptions o = NoOverheadOptions();
  o.noise_sigma = 0.3;
  ClusterConfig c{TestMachine(), 2, 2};
  JobSpec job;
  for (int i = 0; i < 16; ++i) job.tasks.push_back(MakeTask(1.0));
  SimEngine noisy(c, o);
  SimEngine clean(c, NoOverheadOptions());
  auto sn = noisy.RunJob(job), sc = clean.RunJob(job);
  ASSERT_TRUE(sn.ok() && sc.ok());
  EXPECT_NE(sn->duration_seconds, sc->duration_seconds);
}

/// Slots sweep on an IO-bound job: with machine-shared disk, throughput
/// cannot improve by adding slots beyond saturation.
class SlotSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SlotSweepTest, IoBoundJobGainsNothingFromExtraSlots) {
  const int slots = GetParam();
  ClusterConfig c{TestMachine(), 1, slots};
  SimEngine engine(c, NoOverheadOptions());
  JobSpec job;
  for (int i = 0; i < 16; ++i) {
    job.tasks.push_back(MakeTask(0.0, 100'000'000));
  }
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  // Total data / machine disk bandwidth = 16 s regardless of slot count.
  EXPECT_NEAR(stats->duration_seconds, 16.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Slots, SlotSweepTest, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// RealEngine
// ---------------------------------------------------------------------------

TEST(RealEngineTest, RunsAllTasksAndMeasuresTime) {
  ClusterConfig c{TestMachine(), 2, 2};
  RealEngine engine(c, RealEngineOptions{});
  std::atomic<int> ran{0};
  JobSpec job;
  for (int i = 0; i < 10; ++i) {
    Task t;
    t.work = [&ran](int) {
      ran.fetch_add(1);
      return Status::OK();
    };
    job.tasks.push_back(std::move(t));
  }
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(stats->num_tasks, 10);
  EXPECT_GE(stats->duration_seconds, 0.0);
}

TEST(RealEngineTest, AssignsMachinesRoundRobin) {
  ClusterConfig c{TestMachine(), 3, 1};
  RealEngine engine(c, RealEngineOptions{});
  JobSpec job;
  job.tasks.resize(6);
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(stats->task_runs[i].machine, i % 3);
  }
}

/// Machines RealEngine placed each task of `job` on.
std::vector<int> PlacedMachines(RealEngine* engine, const JobSpec& job) {
  auto stats = engine->RunJob(job);
  EXPECT_TRUE(stats.ok());
  std::vector<int> machines;
  if (stats.ok()) {
    for (const TaskRunInfo& run : stats->task_runs) {
      machines.push_back(run.machine);
    }
  }
  return machines;
}

TEST(RealEngineTest, OverfilledPreferencesLeaveEveryMachineUnderTheCap) {
  // The first half of the job prefers machine 0 and fills its share
  // (ceil(tasks / machines)); the rest has no preference. Round-robin
  // fallback would put every other one of them on machine 0 as well.
  for (int machines : {2, 3}) {
    for (int tasks : {8, 9, 16}) {
      ClusterConfig c{TestMachine(), machines, 1};
      RealEngine engine(c, RealEngineOptions{});
      JobSpec job;
      job.tasks.resize(tasks);
      for (int i = 0; i < tasks / 2; ++i) job.tasks[i].preferred_machines = {0};
      const int cap = (tasks + machines - 1) / machines;
      std::vector<int> per_machine(machines, 0);
      for (int m : PlacedMachines(&engine, job)) ++per_machine[m];
      for (int m = 0; m < machines; ++m) {
        EXPECT_LE(per_machine[m], cap)
            << "machine " << m << " of " << machines << ", " << tasks
            << " tasks";
      }
    }
  }
}

TEST(RealEngineTest, PreferredTaskStaysLocalWhileItsMachineHasRoom) {
  // Cap is 2 per machine: both tasks preferring machine 1 fit there, and
  // the two without a preference fill machine 0.
  ClusterConfig c{TestMachine(), 2, 1};
  RealEngine engine(c, RealEngineOptions{});
  JobSpec job;
  job.tasks.resize(4);
  job.tasks[0].preferred_machines = {1};
  job.tasks[2].preferred_machines = {1};
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->task_runs[0].machine, 1);
  EXPECT_EQ(stats->task_runs[2].machine, 1);
  EXPECT_TRUE(stats->task_runs[0].local);
  EXPECT_TRUE(stats->task_runs[2].local);
  EXPECT_EQ(stats->task_runs[1].machine, 0);
  EXPECT_EQ(stats->task_runs[3].machine, 0);
  EXPECT_EQ(stats->num_non_local_tasks, 0);
}

TEST(RealEngineTest, PropagatesFirstTaskError) {
  ClusterConfig c{TestMachine(), 1, 2};
  RealEngine engine(c, RealEngineOptions{});
  JobSpec job;
  Task bad;
  bad.name = "bad";
  bad.work = [](int) { return Status::Internal("boom"); };
  job.tasks.push_back(std::move(bad));
  auto stats = engine.RunJob(job);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_NE(stats.status().message().find("bad"), std::string::npos);
}

TEST(RealEngineTest, ConcurrentFailuresPublishOneErrorSafely) {
  // Regression test for the first-error hand-off: the driver used to read
  // the error slot lock-free after the completion latch while workers
  // wrote it under a different mutex. It now lives with the latch under
  // one JobSync mutex. Many simultaneously failing tasks keep the write
  // side hot; the TSan lane verifies the publication is race-free.
  ClusterConfig c{TestMachine(), 4, 4};
  RealEngine engine(c, RealEngineOptions{});
  for (int round = 0; round < 10; ++round) {
    JobSpec job;
    for (int i = 0; i < 32; ++i) {
      Task t;
      t.name = "racing-failure";
      t.work = [](int) { return Status::Internal("concurrent boom"); };
      job.tasks.push_back(std::move(t));
    }
    auto stats = engine.RunJob(job);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
    EXPECT_NE(stats.status().message().find("concurrent boom"),
              std::string::npos);
  }
}

TEST(RealEngineTest, TasksWithoutWorkAreNoOps) {
  ClusterConfig c{TestMachine(), 1, 1};
  RealEngine engine(c, RealEngineOptions{});
  JobSpec job;
  job.tasks.resize(3);
  auto stats = engine.RunJob(job);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_tasks, 3);
}

// ---------------------------------------------------------------------------
// PlaceTasks
// ---------------------------------------------------------------------------

/// The most tasks of `job` that can sit on one of their preferred machines
/// with no machine holding more than `cap`, found by trying every choice
/// of a preferred machine, or none, for every task.
int MaxLocalTasks(const JobSpec& job, int machines, int cap) {
  std::vector<int> load(machines, 0);
  std::function<int(size_t)> best = [&](size_t t) {
    if (t == job.tasks.size()) return 0;
    int most = best(t + 1);
    for (int m : job.tasks[t].preferred_machines) {
      if (m < 0 || m >= machines || load[m] >= cap) continue;
      ++load[m];
      most = std::max(most, 1 + best(t + 1));
      --load[m];
    }
    return most;
  };
  return best(0);
}

TEST(PlaceTasksTest, SmallRandomJobsMatchTheBruteForceOptimum) {
  Rng rng(26);
  for (int trial = 0; trial < 400; ++trial) {
    const int machines = static_cast<int>(rng.NextInt(1, 4));
    const int slots = static_cast<int>(rng.NextInt(1, 3));
    const int tasks = static_cast<int>(rng.NextInt(0, 8));
    JobSpec job;
    job.tasks.resize(tasks);
    for (Task& task : job.tasks) {
      // Ids -1 and `machines` are out of range; with so few machines,
      // three draws often repeat an id.
      for (int64_t p = rng.NextInt(0, 3); p > 0; --p) {
        task.preferred_machines.push_back(
            static_cast<int>(rng.NextInt(-1, machines)));
      }
    }
    SCOPED_TRACE(StrCat("trial ", trial, ": ", tasks, " tasks on ",
                        machines, " x ", slots));
    const int cap = std::max((tasks + machines - 1) / machines, slots);

    const std::vector<int> placement = PlaceTasks(job, machines, slots, true);
    ASSERT_EQ(placement.size(), job.tasks.size());
    std::vector<int> load(machines, 0);
    int local = 0;
    for (int t = 0; t < tasks; ++t) {
      ASSERT_GE(placement[t], 0);
      ASSERT_LT(placement[t], machines);
      ++load[placement[t]];
      const std::vector<int>& prefs = job.tasks[t].preferred_machines;
      if (std::find(prefs.begin(), prefs.end(), placement[t]) !=
          prefs.end()) {
        ++local;
      }
    }
    for (int m = 0; m < machines; ++m) EXPECT_LE(load[m], cap);
    EXPECT_EQ(local, MaxLocalTasks(job, machines, cap));

    // Preferences ignored, or none declared: exactly round-robin.
    JobSpec bare;
    bare.tasks.resize(tasks);
    const std::vector<int> blind = PlaceTasks(job, machines, slots, false);
    const std::vector<int> unpreferred =
        PlaceTasks(bare, machines, slots, true);
    for (int t = 0; t < tasks; ++t) {
      EXPECT_EQ(blind[t], t % machines);
      EXPECT_EQ(unpreferred[t], t % machines);
    }
  }
}

}  // namespace
}  // namespace cumulon
