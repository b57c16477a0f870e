#include "exec/report.h"

#include <cstdio>

#include "common/strings.h"
#include "obs/quantile_sketch.h"

namespace cumulon {

std::string FormatPlanStats(const PlanStats& stats) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %7s %6s %12s %12s %10s\n", "job",
                "tasks", "waves", "read", "written", "time");
  out += line;
  for (const JobRecord& record : stats.jobs) {
    std::snprintf(line, sizeof(line), "%-28s %7d %6d %12s %12s %10s\n",
                  record.name.c_str(), record.stats.num_tasks,
                  record.stats.waves,
                  FormatBytes(record.stats.bytes_read).c_str(),
                  FormatBytes(record.stats.bytes_written).c_str(),
                  FormatDuration(record.stats.duration_seconds).c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %d tasks (%d non-local), %s read, %s written, %s\n",
                stats.total_tasks, stats.non_local_tasks,
                FormatBytes(stats.bytes_read).c_str(),
                FormatBytes(stats.bytes_written).c_str(),
                FormatDuration(stats.total_seconds).c_str());
  out += line;
  if (stats.cache_hits > 0 || stats.cache_misses > 0 ||
      stats.bytes_read_cached > 0) {
    const int64_t lookups = stats.cache_hits + stats.cache_misses;
    const double hit_rate =
        lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
    std::snprintf(line, sizeof(line),
                  "tile cache: %lld hits / %lld lookups (%.1f%%), %s served "
                  "from cache\n",
                  static_cast<long long>(stats.cache_hits),
                  static_cast<long long>(lookups), 100.0 * hit_rate,
                  FormatBytes(stats.bytes_read_cached).c_str());
    out += line;
  }
  if (stats.stall_seconds > 0.0) {
    double task_seconds = 0.0;
    for (const JobRecord& record : stats.jobs) {
      task_seconds += record.stats.total_task_seconds;
    }
    std::snprintf(line, sizeof(line),
                  "io stall: %s blocked on tile reads (%.1f%% of %s task "
                  "time)\n",
                  FormatDuration(stats.stall_seconds).c_str(),
                  task_seconds > 0.0
                      ? 100.0 * stats.stall_seconds / task_seconds
                      : 0.0,
                  FormatDuration(task_seconds).c_str());
    out += line;
  }
  if (stats.spill_evictions > 0 || stats.spill_refetches > 0) {
    std::snprintf(line, sizeof(line),
                  "spill: %lld panels evicted (%s), %lld refetched (%s); "
                  "peak resident %s\n",
                  static_cast<long long>(stats.spill_evictions),
                  FormatBytes(stats.spill_evicted_bytes).c_str(),
                  static_cast<long long>(stats.spill_refetches),
                  FormatBytes(stats.spill_refetch_bytes).c_str(),
                  FormatBytes(stats.memory_peak_bytes).c_str());
    out += line;
  }
  // Task-duration quantiles from a bounded-memory sketch
  // (obs/quantile_sketch.h): exact for plans up to a few thousand tasks,
  // within the sketch's rank-error bound beyond that.
  QuantileSketch durations;
  for (const JobRecord& record : stats.jobs) {
    for (const TaskRunInfo& run : record.stats.task_runs) {
      durations.Add(run.duration_seconds);
    }
  }
  if (durations.count() > 1) {
    std::snprintf(line, sizeof(line),
                  "task time: p50=%s p99=%s max=%s over %lld tasks\n",
                  FormatDuration(durations.Quantile(0.50)).c_str(),
                  FormatDuration(durations.Quantile(0.99)).c_str(),
                  FormatDuration(durations.max()).c_str(),
                  static_cast<long long>(durations.count()));
    out += line;
  }
  return out;
}

std::string PlanStatsCsv(const PlanStats& stats) {
  std::string out = "job,task,machine,slot,start,duration,local\n";
  for (const JobRecord& record : stats.jobs) {
    for (size_t t = 0; t < record.stats.task_runs.size(); ++t) {
      const TaskRunInfo& run = record.stats.task_runs[t];
      out += StrCat(record.name, ",", t, ",", run.machine, ",", run.slot,
                    ",", run.start_seconds, ",", run.duration_seconds, ",",
                    run.local ? 1 : 0, "\n");
    }
  }
  return out;
}

std::string FormatMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  char line[256];
  for (const auto& [name, value] : snapshot.counters) {
    std::snprintf(line, sizeof(line), "%-36s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    out += line;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::snprintf(line, sizeof(line), "%-36s %lld (gauge)\n", name.c_str(),
                  static_cast<long long>(value));
    out += line;
  }
  for (const auto& [name, h] : snapshot.histograms) {
    std::snprintf(line, sizeof(line),
                  "%-36s n=%lld mean=%.3g p50<=%.3g p95<=%.3g max=%.3g\n",
                  name.c_str(), static_cast<long long>(h.count), h.mean(),
                  h.p50, h.p95, h.max);
    out += line;
  }
  return out;
}

}  // namespace cumulon
