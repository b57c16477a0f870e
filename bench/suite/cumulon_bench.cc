// cumulon_bench: the end-to-end benchmark, one workload per process.
//
//   cumulon_bench --workload NAME --seed N [--seconds S] [--json FILE]
//                 [--trace FILE] [--smoke]
//   cumulon_bench --list
//
// Workloads: rsvd-mem, rsvd-io, gnmf-io, plan-search, svc-open (see
// README.md; BENCHMARK.json gates rsvd-io and gnmf-io); --list prints their
// names, one a line.
// Without --trace the run reports the end-to-end metrics; with --trace it
// reports the per-layer metrics and writes the bench-owned spans to FILE
// as Chrome trace_event JSON. Every metric is printed with its unit and
// sample count; --json writes the same record for run.py / run_suite.py.
// The exit code is 0 whenever a record was produced; failed checks show as
// "correct": false and in "problems".

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench/suite/suite.h"
#include "matrix/kernel_config.h"
#include "svc/json.h"

namespace cumulon::suite {
namespace {

using WorkloadFn = RunResult (*)(const RunConfig&);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"rsvd-mem", RunRsvdMem},
      {"rsvd-io", RunRsvdIo},
      {"gnmf-io", RunGnmfIo},
      {"plan-search", RunPlanSearch},
      {"svc-open", RunSvcOpen},
  };
  return kWorkloads;
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: cumulon_bench --workload "
               "rsvd-mem|rsvd-io|gnmf-io|plan-search|svc-open --seed N "
               "[--seconds S] [--json FILE] [--trace FILE] [--smoke]\n"
               "       cumulon_bench --list\n",
               problem);
  return 2;
}

JsonValue ToJson(const std::string& workload, const RunConfig& config,
                 const RunResult& result) {
  JsonValue problems = JsonValue::Array();
  for (const std::string& p : result.problems) {
    problems.Append(JsonValue::Str(p));
  }
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, m] : result.metrics) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", m.value).Set("unit", m.unit).Set("samples", m.samples);
    metrics.Set(name, std::move(metric));
  }
  JsonValue host = JsonValue::Object();
  host.Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("kernel", KernelModeName(ResolveKernelMode(KernelMode::kAuto)));
  JsonValue root = JsonValue::Object();
  root.Set("workload", workload)
      .Set("host", std::move(host))
      .Set("seed", static_cast<int64_t>(config.seed))
      .Set("mode", config.traced ? "per_layer" : "end_to_end")
      .Set("correct", result.correct())
      .Set("attempted", result.attempted)
      .Set("failed", result.failed)
      .Set("problems", std::move(problems))
      .Set("metrics", std::move(metrics));
  return root;
}

int Main(int argc, char** argv) {
  std::string workload, json_path;
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list") {
      for (const auto& [name, fn] : Workloads()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--trace" && has_value) {
      config.traced = true;
      config.trace_path = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument: " + arg).c_str());
    }
  }
  auto it = Workloads().find(workload);
  if (it == Workloads().end()) return Usage("unknown --workload");
  if (!have_seed) return Usage("--seed is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  if (config.smoke) config.seconds = 1.0;

  const RunResult result = it->second(config);
  std::printf("%s %s (seed %llu): %s, %lld attempted, %lld failed\n",
              workload.c_str(), config.traced ? "per-layer" : "end-to-end",
              static_cast<unsigned long long>(config.seed),
              result.correct() ? "correct" : "INCORRECT",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (const std::string& p : result.problems) {
    std::printf("  problem: %s\n", p.c_str());
  }
  for (const auto& [name, m] : result.metrics) {
    std::printf("  %-26s %16.6g %-9s n=%lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string text = ToJson(workload, config, result).ToString();
    std::fprintf(f, "%s\n", text.c_str());
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace cumulon::suite

int main(int argc, char** argv) { return cumulon::suite::Main(argc, argv); }
