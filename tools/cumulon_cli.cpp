// cumulon — command-line front end for the deployment optimizer.
//
//   cumulon calibrate
//       Benchmark this host's kernels and print the fitted cost models.
//   cumulon predict --workload rsvd --type m1.large --machines 8 [--slots 2]
//       Predict time and dollar cost of one workload on one cluster.
//       --trace out.json writes the simulated schedule as a Chrome
//       trace_event file; --metrics 1 prints the run's counters.
//       --memory-budget-mb M charges tasks the out-of-core streaming
//       refetch term against an M MB per-node memory budget.
//   cumulon plan --workload gnmf [--deadline MIN] [--budget DOLLARS]
//       Search the deployment space; print the Pareto frontier and the
//       constrained optimum.
//   cumulon submit --workloads rsvd,gnmf,linreg [--deadline-seconds S]
//                  [--budget-dollars D] [--policy fifo|fair|edf] [--json 1]
//       Submit several workloads to the multi-tenant workload manager on
//       one simulated cluster: each is admission-checked against its
//       deadline/budget using the predictor's estimate, then scheduled by
//       the chosen policy. --deadline-seconds/--budget-dollars accept one
//       value for all submissions or a comma list matched by position
//       (0 = unconstrained). --json 1 prints one machine-readable report
//       instead of the human schedule. Exits 1 when any submission is
//       rejected.
//   cumulon serve --listen unix:/tmp/cumulon.sock [--state-dir DIR]
//                 [--min-machines N] [--max-machines N] [--machines N]
//                 [--slots S] [--concurrent N] [--policy fifo|fair|edf]
//       Run the long-lived service daemon (src/svc): tenant sessions over
//       a framed JSON protocol, per-tenant quotas, elastic fleet control
//       against the live backlog, graceful drain with queued-plan
//       persistence into --state-dir. Blocks until a client sends DRAIN.
//
// Workloads: the svc catalog (src/svc/catalog.h) — the mm-s/m/l/xl matmul
// ladder plus rsvd, gnmf, linreg, pagerank, logreg at cloud scale.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cumulon/cumulon.h"

namespace {

using namespace cumulon;  // NOLINT: binary entry point

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
  int GetInt(const std::string& name, int fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atoi(it->second.c_str());
  }
  /// A count flag (machines, slots): the whole value must be a decimal
  /// number >= 1. Absent = fallback.
  Result<int> GetCount(const std::string& name, int fallback) const {
    auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    const char* end = text.data() + text.size();
    int value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end || value < 1) {
      return Status::InvalidArgument(StrCat(
          "--", name, " must be a whole number >= 1, got '", text, "'"));
    }
    return value;
  }
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: cumulon <command> [flags]\n"
               "  calibrate\n"
               "  predict --workload W [--type T] [--machines N] [--slots S]"
               " [--scale F] [--no-tuner 1] [--memory-budget-mb MB]"
               " [--trace FILE] [--metrics 1]\n"
               "  plan    --workload W [--deadline MIN] [--budget DOLLARS]"
               " [--scale F]\n"
               "  submit  --workloads W1,W2,... [--deadline-seconds S[,S2..]]"
               " [--budget-dollars D[,D2..]] [--policy fifo|fair|edf]"
               " [--concurrent N] [--type T] [--machines N] [--slots S]"
               " [--scale F] [--trace FILE] [--json 1]\n"
               "  serve   --listen unix:PATH|tcp:HOST:PORT [--state-dir DIR]"
               " [--min-machines N] [--max-machines N] [--machines N]"
               " [--slots S] [--concurrent N] [--policy fifo|fair|edf]"
               " [--quota-inflight N] [--quota-budget D] [--elastic 0|1]"
               " [--type T] [--scale F] [--trace FILE]\n");
}

/// Reports a malformed command line: the error, then the usage. Exit 2.
int UsageError(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  PrintUsage();
  return 2;
}

/// The cluster --machines (default 8) and --slots (default two per core)
/// describe on `machine`.
Result<ClusterConfig> ClusterFromArgs(const Args& args,
                                      const MachineProfile& machine) {
  CUMULON_ASSIGN_OR_RETURN(const int machines, args.GetCount("machines", 8));
  CUMULON_ASSIGN_OR_RETURN(const int slots,
                           args.GetCount("slots", 2 * machine.cores));
  return ClusterConfig{machine, machines, slots};
}

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      return Status::InvalidArgument(StrCat("unexpected argument: ", arg));
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(StrCat("flag ", arg, " needs a value"));
    }
    args.flags[arg + 2] = argv[++i];
  }
  return args;
}

Result<ProgramSpec> MakeWorkload(const std::string& name, double scale) {
  // One catalog for the CLI and the service daemon: same names, same
  // shapes (so a `predict` estimate matches what `serve` admits).
  return MakeCatalogWorkload(name, scale, /*tile_dim=*/2048);
}

int RunCalibrate() {
  CalibrationOptions probe;
  auto quick = Calibrate(probe);
  if (!quick.ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 quick.status().ToString().c_str());
    return 1;
  }
  std::printf("single-point probe:\n");
  std::printf("  kernel     %s\n", quick->kernel.c_str());
  std::printf("  gemm       %8.2f GFLOP/s\n", quick->gemm_gflops);
  std::printf("  elementwise%8.2f Gelem/s\n", quick->ew_gelems);
  std::printf("  transpose  %8.2f Gelem/s\n", quick->transpose_gelems);

  auto fitted = CalibrateByRegression(RegressionCalibrationOptions{});
  if (!fitted.ok()) {
    std::fprintf(stderr, "regression calibration failed: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }
  std::printf("regression fit (time ~ intercept + slope * work):\n");
  std::printf("  gemm       %8.2f GFLOP/s  (R^2 %.4f)\n",
              fitted->gemm_gflops(), fitted->gemm.r_squared);
  std::printf("  elementwise%8.2f Gelem/s  (R^2 %.4f)\n",
              fitted->ew_gelems(), fitted->elementwise.r_squared);
  std::printf("  transpose  %8.2f Gelem/s  (R^2 %.4f)\n",
              fitted->transpose_gelems(), fitted->transpose.r_squared);
  const TileOpCostModel model = fitted->ToCostModel();
  std::printf("reference-normalized cost model: ew %.3f, transpose %.3f, "
              "per-tile overhead %.2e s\n",
              model.ew_gelems_per_sec, model.transpose_gelems_per_sec,
              model.per_tile_overhead_seconds);
  return 0;
}

int RunPredict(const Args& args) {
  auto spec = MakeWorkload(args.Get("workload", "rsvd"),
                           args.GetDouble("scale", 1.0));
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto machine = FindMachine(args.Get("type", "m1.large"));
  if (!machine.ok()) {
    std::fprintf(stderr, "%s\n", machine.status().ToString().c_str());
    return 1;
  }
  auto parsed_cluster = ClusterFromArgs(args, *machine);
  if (!parsed_cluster.ok()) return UsageError(parsed_cluster.status());
  const ClusterConfig& cluster = *parsed_cluster;
  PredictorOptions options;
  options.lowering.tile_dim = 2048;
  options.tune_mm_per_job = !args.Has("no-tuner");
  // --memory-budget-mb charges tasks the out-of-core streaming refetch
  // term, so predictions show the stream-vs-resident crossover.
  options.memory_budget_bytes = static_cast<int64_t>(
      args.GetDouble("memory-budget-mb", 0.0) * 1024.0 * 1024.0);
  // --trace records the simulated schedule on the virtual clock;
  // --metrics prints the run's counters. Either one turns the shared
  // registry on so dfs.* traffic is attributed too.
  Tracer tracer(Tracer::ClockDomain::kVirtual);
  MetricsRegistry metrics;
  const std::string trace_path = args.Get("trace", "");
  if (!trace_path.empty()) options.tracer = &tracer;
  if (!trace_path.empty() || args.Has("metrics")) options.metrics = &metrics;
  auto prediction = PredictProgram(*spec, cluster, options);
  if (!prediction.ok()) {
    std::fprintf(stderr, "%s\n", prediction.status().ToString().c_str());
    return 1;
  }
  std::printf("%s on %s:\n", args.Get("workload", "rsvd").c_str(),
              cluster.ToString().c_str());
  std::printf("  predicted time: %s\n",
              FormatDuration(prediction->seconds).c_str());
  std::printf("  predicted cost: %s (hourly billing)\n",
              FormatMoney(prediction->dollars).c_str());
  std::printf("%s", FormatPlanStats(prediction->stats).c_str());
  if (!trace_path.empty()) {
    Status st = tracer.WriteChromeJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "writing trace failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s (chrome://tracing)\n",
                tracer.span_count(), trace_path.c_str());
  }
  if (args.Has("metrics")) {
    std::printf("metrics:\n%s", FormatMetrics(metrics.Snapshot()).c_str());
  }
  return 0;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      if (start < list.size()) parts.push_back(list.substr(start));
      break;
    }
    if (comma > start) parts.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

/// i-th value of a broadcastable comma list: one entry applies to every
/// submission, otherwise entries match submissions by position.
double ListValue(const std::vector<std::string>& values, size_t i,
                 double fallback) {
  if (values.empty()) return fallback;
  const size_t index = values.size() == 1 ? 0 : i;
  if (index >= values.size()) return fallback;
  return std::atof(values[index].c_str());
}

int RunSubmit(const Args& args) {
  const std::vector<std::string> workloads =
      SplitCommas(args.Get("workloads", args.Get("workload", "rsvd,gnmf")));
  if (workloads.empty()) {
    std::fprintf(stderr, "no workloads given\n");
    return 1;
  }
  auto machine = FindMachine(args.Get("type", "m1.large"));
  if (!machine.ok()) {
    std::fprintf(stderr, "%s\n", machine.status().ToString().c_str());
    return 1;
  }
  auto parsed_cluster = ClusterFromArgs(args, *machine);
  if (!parsed_cluster.ok()) return UsageError(parsed_cluster.status());
  const ClusterConfig& cluster = *parsed_cluster;
  auto policy = ParseSchedPolicy(args.Get("policy", "edf"));
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> deadlines =
      SplitCommas(args.Get("deadline-seconds", ""));
  const std::vector<std::string> budgets =
      SplitCommas(args.Get("budget-dollars", ""));

  // One shared simulated cluster for every admitted plan.
  PredictorOptions predictor;
  predictor.lowering.tile_dim = 2048;
  DfsOptions dfs_options;
  dfs_options.num_nodes = cluster.num_machines;
  dfs_options.replication = predictor.dfs_replication;
  dfs_options.seed = predictor.seed;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);
  SimEngineOptions sim;
  sim.replication = predictor.dfs_replication;
  sim.noise_sigma = 0.0;
  Tracer tracer(Tracer::ClockDomain::kVirtual);
  MetricsRegistry metrics;
  const std::string trace_path = args.Get("trace", "");
  if (!trace_path.empty()) sim.tracer = &tracer;
  SimEngine engine(cluster, sim);
  TileOpCostModel cost = predictor.cost;

  WorkloadManagerOptions manager_options;
  manager_options.policy = *policy;
  manager_options.max_concurrent_plans = args.GetInt("concurrent", 2);
  manager_options.virtual_time = true;  // sim engine = virtual clock
  manager_options.defer_start = true;   // queue everything, then schedule
  manager_options.executor.real_mode = false;
  manager_options.executor.job_startup_seconds =
      predictor.job_startup_seconds;
  manager_options.metrics = &metrics;
  if (!trace_path.empty()) manager_options.tracer = &tracer;
  WorkloadManager manager(&store, &engine, &cost, manager_options);

  // --json 1: one machine-readable report on stdout instead of the human
  // schedule (stderr still carries hard errors).
  const bool json = args.Has("json");
  JsonValue report = JsonValue::Object();
  report.Set("cluster", cluster.ToString())
      .Set("policy", SchedPolicyName(*policy));
  JsonValue submissions = JsonValue::Array();

  if (!json) {
    std::printf("cluster %s, policy %s:\n", cluster.ToString().c_str(),
                SchedPolicyName(*policy));
  }
  std::vector<int64_t> admitted;
  int rejected = 0;
  for (size_t i = 0; i < workloads.size(); ++i) {
    auto spec = MakeWorkload(workloads[i], args.GetDouble("scale", 1.0));
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    Submission submission;
    submission.name = StrCat(workloads[i], "-", i + 1);
    submission.tenant = workloads[i];
    submission.deadline_seconds = ListValue(deadlines, i, 0.0);
    submission.budget_dollars = ListValue(budgets, i, 0.0);
    auto estimate = EstimateForAdmission(*spec, cluster, predictor);
    if (!estimate.ok()) {
      std::fprintf(stderr, "%s\n", estimate.status().ToString().c_str());
      return 1;
    }
    submission.estimate = *estimate;
    // Namespace this plan's temporaries so concurrent plans sharing the
    // store never collide (or drop each other's intermediates).
    LoweringOptions lowering = predictor.lowering;
    lowering.temp_prefix = StrCat(submission.name, "_tmp");
    auto lowered = PrepareProgram(*spec, &store, lowering);
    if (!lowered.ok()) {
      std::fprintf(stderr, "%s\n", lowered.status().ToString().c_str());
      return 1;
    }
    const std::string name = submission.name;
    submission.plan = std::move(lowered->plan);
    auto id = manager.Submit(std::move(submission));
    JsonValue entry = JsonValue::Object();
    entry.Set("workload", workloads[i])
        .Set("name", name)
        .Set("admitted", id.ok())
        .Set("estimate_seconds", estimate->seconds)
        .Set("estimate_dollars", estimate->dollars);
    if (id.ok()) {
      entry.Set("plan", *id);
      if (!json) {
        std::printf("  ADMIT  %s as plan %lld (est %s, %s)\n", name.c_str(),
                    static_cast<long long>(*id),
                    FormatDuration(estimate->seconds).c_str(),
                    FormatMoney(estimate->dollars).c_str());
      }
      admitted.push_back(*id);
    } else {
      entry.Set("reason", std::string(id.status().message()));
      if (!json) {
        std::printf("  REJECT %s: %s\n", name.c_str(),
                    id.status().message().c_str());
      }
      rejected++;
    }
    submissions.Append(std::move(entry));
  }

  manager.Start();
  const std::vector<PlanOutcome> outcomes = manager.Drain();
  if (!json) {
    std::printf("schedule (%s clock):\n",
                manager_options.virtual_time ? "virtual" : "wall");
  }
  JsonValue schedule = JsonValue::Array();
  for (const PlanOutcome& outcome : outcomes) {
    if (json) {
      JsonValue entry = JsonValue::Object();
      entry.Set("plan", outcome.plan_id)
          .Set("name", outcome.name)
          .Set("state", PlanStateName(outcome.state))
          .Set("start_seconds", outcome.start_seconds)
          .Set("finish_seconds", outcome.finish_seconds)
          .Set("queue_wait_seconds", outcome.queue_wait_seconds());
      if (outcome.deadline_abs_seconds > 0.0) {
        entry.Set("deadline_met", outcome.deadline_met);
      }
      schedule.Append(std::move(entry));
      continue;
    }
    std::printf("  plan %lld %-12s %-9s start %8.1fs finish %8.1fs"
                " wait %6.1fs%s\n",
                static_cast<long long>(outcome.plan_id),
                outcome.name.c_str(), PlanStateName(outcome.state),
                outcome.start_seconds, outcome.finish_seconds,
                outcome.queue_wait_seconds(),
                outcome.deadline_abs_seconds > 0.0
                    ? (outcome.deadline_met ? "  deadline met"
                                            : "  DEADLINE MISSED")
                    : "");
  }
  const MetricsSnapshot snapshot = metrics.Snapshot();
  if (json) {
    report.Set("submissions", std::move(submissions))
        .Set("schedule", std::move(schedule))
        .Set("admitted", snapshot.CounterOr("sched.admitted", 0))
        .Set("rejected", snapshot.CounterOr("sched.rejected", 0))
        .Set("completed", snapshot.CounterOr("sched.completed", 0))
        .Set("deadline_missed", snapshot.CounterOr("sched.deadline.missed", 0));
    std::printf("%s\n", report.ToString().c_str());
  } else {
    std::printf("admitted %lld, rejected %lld, completed %lld, "
                "deadline misses %lld\n",
                static_cast<long long>(snapshot.CounterOr("sched.admitted", 0)),
                static_cast<long long>(snapshot.CounterOr("sched.rejected", 0)),
                static_cast<long long>(
                    snapshot.CounterOr("sched.completed", 0)),
                static_cast<long long>(
                    snapshot.CounterOr("sched.deadline.missed", 0)));
  }
  if (!trace_path.empty()) {
    Status st = tracer.WriteChromeJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "writing trace failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    if (!json) {
      std::printf("trace: %lld spans -> %s (chrome://tracing)\n",
                  static_cast<long long>(tracer.span_count()),
                  trace_path.c_str());
    }
  }
  // A rejected submission is a failed request: scripts keying off the exit
  // code see it without parsing the report.
  return rejected > 0 ? 1 : 0;
}

int RunPlan(const Args& args) {
  auto spec = MakeWorkload(args.Get("workload", "rsvd"),
                           args.GetDouble("scale", 1.0));
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  PredictorOptions options;
  options.lowering.tile_dim = 2048;
  SearchSpace space;
  space.cluster_sizes = {1, 2, 4, 8, 16, 32};
  auto points = EnumeratePlans(*spec, space, options);
  if (!points.ok()) {
    std::fprintf(stderr, "%s\n", points.status().ToString().c_str());
    return 1;
  }
  std::printf("evaluated %zu plans; Pareto frontier:\n", points->size());
  for (const PlanPoint& p : ParetoFrontier(*points)) {
    std::printf("  %s\n", p.ToString().c_str());
  }
  if (args.Has("deadline")) {
    const double minutes = args.GetDouble("deadline", 60.0);
    auto best = MinCostUnderDeadline(*points, minutes * 60.0);
    std::printf("cheapest within %.0f min: %s\n", minutes,
                best.ok() ? best->ToString().c_str()
                          : best.status().ToString().c_str());
  }
  if (args.Has("budget")) {
    const double dollars = args.GetDouble("budget", 1.0);
    auto best = MinTimeUnderBudget(*points, dollars);
    std::printf("fastest within %s: %s\n", FormatMoney(dollars).c_str(),
                best.ok() ? best->ToString().c_str()
                          : best.status().ToString().c_str());
  }
  return 0;
}

int RunServe(const Args& args) {
  auto machine = FindMachine(args.Get("type", "m1.large"));
  if (!machine.ok()) {
    std::fprintf(stderr, "%s\n", machine.status().ToString().c_str());
    return 1;
  }
  auto policy = ParseSchedPolicy(args.Get("policy", "fair"));
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }
  ServiceOptions options;
  options.machine = *machine;
  options.state_dir = args.Get("state-dir", "");
  options.elastic.min_machines = args.GetInt("min-machines", 2);
  options.elastic.max_machines = args.GetInt("max-machines", 16);
  options.initial_machines = args.GetInt("machines", 0);
  options.slots_per_machine = args.GetInt("slots", 2);
  options.enable_elastic = args.GetInt("elastic", 1) != 0;
  options.policy = *policy;
  options.max_concurrent_plans = args.GetInt("concurrent", 4);
  options.scale = args.GetDouble("scale", 1.0);
  options.session.default_quota.max_inflight_plans =
      args.GetInt("quota-inflight", 8);
  options.session.default_quota.aggregate_budget_dollars =
      args.GetDouble("quota-budget", 0.0);
  MetricsRegistry metrics;
  options.metrics = &metrics;
  Tracer tracer(Tracer::ClockDomain::kWall);
  const std::string trace_path = args.Get("trace", "");
  if (!trace_path.empty()) options.tracer = &tracer;

  CumulonService service(options);
  ServiceServer server(&service);
  const std::string address = args.Get("listen", "unix:/tmp/cumulon.sock");
  Status started = server.Start(address);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("cumulon serve: listening on %s (fleet %d..%d x %s, "
              "policy %s)\n",
              address.c_str(), options.elastic.min_machines,
              options.elastic.max_machines, machine->name.c_str(),
              SchedPolicyName(*policy));
  if (service.restored_plans() > 0) {
    std::printf("restored %d queued plan(s) from %s\n",
                service.restored_plans(), options.state_dir.c_str());
  }
  std::fflush(stdout);

  // Runs until a tenant (or an operator via `DRAIN`) drains the daemon.
  server.WaitUntilStopped();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  std::printf("drained: accepted %lld, rejected %lld (quota %lld, "
              "admission %lld), completed %lld, persisted %lld\n",
              static_cast<long long>(
                  snapshot.CounterOr("svc.submit.accepted", 0)),
              static_cast<long long>(
                  snapshot.CounterOr("svc.submit.rejected.quota", 0) +
                  snapshot.CounterOr("svc.submit.rejected.admission", 0) +
                  snapshot.CounterOr("svc.submit.rejected.draining", 0)),
              static_cast<long long>(
                  snapshot.CounterOr("svc.submit.rejected.quota", 0)),
              static_cast<long long>(
                  snapshot.CounterOr("svc.submit.rejected.admission", 0)),
              static_cast<long long>(snapshot.CounterOr("sched.completed", 0)),
              static_cast<long long>(
                  snapshot.CounterOr("svc.drain.persisted", 0)));
  if (!trace_path.empty()) {
    Status st = tracer.WriteChromeJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "writing trace failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s (chrome://tracing)\n",
                tracer.span_count(), trace_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) return UsageError(args.status());
  if (args->command == "calibrate") return RunCalibrate();
  if (args->command == "predict") return RunPredict(*args);
  if (args->command == "plan") return RunPlan(*args);
  if (args->command == "submit") return RunSubmit(*args);
  if (args->command == "serve") return RunServe(*args);
  std::fprintf(stderr, "unknown command '%s'\n", args->command.c_str());
  PrintUsage();
  return 2;
}
