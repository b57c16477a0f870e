// plan-search: deployment planning for the five catalog programs, the
// paper's optimizer path as a user waits on it. Each request builds the
// program (lang), enumerates the default search space with the per-job
// tuner (opt, which lowers and simulates every candidate on the sim
// engine) and picks the cheapest plan within 1.5x the fastest one. No
// kernels run and no payload moves, so a simulator or lowering speed-up
// shows here and nowhere in the real-engine workloads.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/suite/suite.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "opt/search.h"
#include "svc/catalog.h"
#include "svc/loadgen.h"

namespace cumulon::suite {
namespace {

constexpr int64_t kTileDim = 2048;
constexpr double kDeadlineOverFastest = 1.5;

struct Request {
  double start = 0.0;
  double built = 0.0;  // timestamps on the NowSeconds() clock
  double enumerated = 0.0;
  double done = 0.0;
  Status status;
  std::string chosen;
  int64_t candidates = 0;
  int64_t sim_tasks = 0;
};

class Planner {
 public:
  Planner(uint64_t seed, bool smoke) {
    options_.lowering.tile_dim = kTileDim;
    options_.seed = seed;
    options_.sim.seed = seed;
    options_.metrics = &metrics_;
    space_.use_job_tuner = true;
    if (smoke) {
      space_.machine_types = {"m1.large", "c1.xlarge"};
      space_.cluster_sizes = {2, 8};
    }
  }

  Request Plan(const std::string& program) {
    Request r;
    const int64_t tasks_before = metrics_.counter("engine.tasks")->Value();
    r.start = NowSeconds();
    auto spec = MakeCatalogWorkload(program, 1.0, kTileDim);
    r.built = NowSeconds();
    if (!spec.ok()) {
      r.status = spec.status();
      r.enumerated = r.done = r.built;
      return r;
    }
    auto points = EnumeratePlans(*spec, space_, options_);
    r.enumerated = NowSeconds();
    if (!points.ok() || points->empty()) {
      r.status = points.ok() ? Status::NotFound("no candidate plans")
                             : points.status();
      r.done = r.enumerated;
      return r;
    }
    const std::vector<PlanPoint> frontier = ParetoFrontier(*points);
    auto best = MinCostUnderDeadline(
        *points, kDeadlineOverFastest * points->front().seconds);
    r.done = NowSeconds();
    if (!best.ok() || frontier.empty()) {
      r.status = best.ok() ? Status::Internal("empty Pareto frontier")
                           : best.status();
      return r;
    }
    r.chosen = best->ToString();
    r.candidates = static_cast<int64_t>(points->size());
    r.sim_tasks = metrics_.counter("engine.tasks")->Value() - tasks_before;
    return r;
  }

 private:
  MetricsRegistry metrics_;
  PredictorOptions options_;
  SearchSpace space_;
};

const std::vector<std::string>& Programs() {
  static const std::vector<std::string> kPrograms = {
      "rsvd", "gnmf", "linreg", "pagerank", "logreg"};
  return kPrograms;
}

}  // namespace

RunResult RunPlanSearch(const RunConfig& config) {
  RunResult result;
  std::unique_ptr<Planner> planner;
  // Set-up: a fresh planner and one untimed warm-up request.
  const std::vector<double> setups = TimeSetups(
      config,
      [&] {
        planner = std::make_unique<Planner>(config.seed, config.smoke);
        const Request warm = planner->Plan("pagerank");
        CUMULON_CHECK(warm.status.ok()) << "warm-up failed: " << warm.status;
      },
      [&] { planner.reset(); });

  std::map<std::string, std::string> chosen;  // program -> first choice
  LayerTrace trace;
  std::vector<double> latencies;
  int64_t candidates = 0, sim_tasks = 0;
  double record_seconds = 0.0;

  // One operation is a round over all five programs: their planning times
  // differ by 5x, so per-request quantiles would hop between programs.
  const double end = NowSeconds() + config.seconds;
  do {
    ++result.attempted;
    std::vector<Request> round;
    std::string problem;
    for (const std::string& program : Programs()) {
      const Request& r = round.emplace_back(planner->Plan(program));
      auto [it, first] = chosen.emplace(program, r.chosen);
      if (!r.status.ok()) {
        problem = StrCat(program, ": ", r.status.ToString());
      } else if (!first && it->second != r.chosen) {
        problem = StrCat(program, ": chosen plan changed from ", it->second,
                         " to ", r.chosen);
      }
    }
    if (!problem.empty()) {
      result.Fail(problem);
      continue;
    }
    latencies.push_back(round.back().done - round.front().start);
    if (!config.traced) continue;
    const double record_start = NowSeconds();
    const int64_t root = trace.Add("bench", "round", round.front().start,
                                   round.back().done, 0);
    for (size_t i = 0; i < round.size(); ++i) {
      const Request& r = round[i];
      candidates += r.candidates;
      sim_tasks += r.sim_tasks;
      const int64_t request = trace.Add(
          "bench", StrCat("plan ", Programs()[i]), r.start, r.done, root);
      trace.Add("lang", "MakeCatalogWorkload", r.start, r.built, request);
      trace.Add("opt", "EnumeratePlans", r.built, r.enumerated, request);
      trace.Add("opt", "MinCostUnderDeadline", r.enumerated, r.done, request);
    }
    record_seconds += NowSeconds() - record_start;
  } while (NowSeconds() < end);
  for (const auto& [program, plan] : chosen) {
    std::printf("  %-9s -> %s\n", program.c_str(), plan.c_str());
  }
  std::printf("plan-search: %lld rounds, median %.3f ms\n",
              static_cast<long long>(result.attempted),
              ExactPercentile(latencies, 0.5) * 1e3);
  if (!config.traced) {
    SetEndToEnd(setups, latencies, &result);
    return result;
  }
  InitPerLayer(&result);
  ProbeKernels(&result);
  const auto n = static_cast<int64_t>(latencies.size());
  const double ops = std::max<double>(n, 1);
  result.Set("opt.candidates", candidates / ops, "count/op", n);
  result.Set("cluster.sim_tasks", sim_tasks / ops, "count/op", n);
  trace.Report(n, &result);
  SetTraceOverhead(record_seconds, latencies, &result);
  if (!config.trace_path.empty()) {
    const Status st = trace.Write(config.trace_path);
    if (!st.ok()) result.Fail(StrCat("writing trace: ", st.ToString()));
  }
  return result;
}

}  // namespace cumulon::suite
