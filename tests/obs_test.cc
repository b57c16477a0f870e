// Observability subsystem tests: counter/gauge/histogram correctness
// (including under concurrent ThreadPool writers — this file runs in the
// TSan CI job), tracer span-nesting invariants, Chrome trace_event JSON
// well-formedness, and the dual-accounting regression pinning the
// executor's cache figures to the TileCacheGroup's own counters.

#include "obs/metrics.h"
#include "obs/trace.h"

#include <cctype>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "exec/report.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (validation only, no value tree). Enough to
// assert the Chrome export and the metrics dump are loadable by a real
// parser without shipping one into the test.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= s_.size() || !std::isxdigit(s_[pos_ + i])) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(Peek())) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(s_[pos_])) ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(CounterTest, AddsAndFoldsShards) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42);
}

TEST(CounterTest, CorrectUnderConcurrentWriters) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter c;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(100);
  g.Add(-30);
  EXPECT_EQ(g.Value(), 70);
  g.Set(5);
  EXPECT_EQ(g.Value(), 5);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, TracksCountSumMinMaxExactly) {
  Histogram h;
  for (double v : {0.5, 2.0, 8.0, 8.0}) h.Observe(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 18.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_DOUBLE_EQ(s.mean(), 18.5 / 4);
}

TEST(HistogramTest, PercentilesAreFactorOfTwoUpperBounds) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(3.0);  // true p50 = p99 = 3
  const HistogramSnapshot s = h.Snapshot();
  // Upper edge of 3.0's power-of-two bucket (2, 4].
  EXPECT_GE(s.p50, 3.0);
  EXPECT_LE(s.p50, 4.0);
  EXPECT_GE(s.p99, 3.0);
  EXPECT_LE(s.p99, 4.0);
}

TEST(HistogramTest, ConcurrentObservationsAllLand) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  Histogram h;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(1.5);
    });
  }
  pool.WaitIdle();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(s.sum, 1.5 * kThreads * kPerThread);
}

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x");
  Counter* b = registry.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.counter("y"), a);
  // Kinds live in separate name spaces.
  EXPECT_NE(static_cast<void*>(registry.gauge("x")), static_cast<void*>(a));
}

TEST(MetricsRegistryTest, SnapshotAndDelta) {
  MetricsRegistry registry;
  registry.counter("ops")->Add(10);
  registry.gauge("level")->Set(3);
  const MetricsSnapshot before = registry.Snapshot();
  registry.counter("ops")->Add(5);
  registry.counter("fresh")->Add(2);
  registry.gauge("level")->Set(7);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = SnapshotDelta(before, after);
  EXPECT_EQ(delta.counters.at("ops"), 5);
  EXPECT_EQ(delta.counters.at("fresh"), 2);  // absent before = from zero
  EXPECT_EQ(delta.gauges.at("level"), 7);    // gauges keep `after`
  EXPECT_EQ(delta.CounterOr("ops", -1), 5);
  EXPECT_EQ(delta.CounterOr("missing", -1), -1);
}

TEST(MetricsRegistryTest, ConcurrentLookupAndUpdate) {
  constexpr int kThreads = 8;
  MetricsRegistry registry;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&registry] {
      for (int i = 0; i < 2000; ++i) {
        registry.counter("shared")->Increment();
        registry.histogram("lat")->Observe(0.25);
      }
    });
  }
  pool.WaitIdle();
  const MetricsSnapshot s = registry.Snapshot();
  EXPECT_EQ(s.counters.at("shared"), 8 * 2000);
  EXPECT_EQ(s.histograms.at("lat").count, 8 * 2000);
}

TEST(MetricsSnapshotTest, ToJsonIsValidJson) {
  MetricsRegistry registry;
  registry.counter("dfs.read.ops")->Add(12);
  registry.gauge("cache.resident_bytes")->Set(1 << 20);
  registry.histogram("task.seconds")->Observe(1.25);
  const std::string json = registry.Snapshot().ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"dfs.read.ops\""), std::string::npos);
}

TEST(ReportTest, FormatMetricsListsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("a.ops")->Add(3);
  registry.gauge("b.level")->Set(9);
  registry.histogram("c.seconds")->Observe(2.0);
  const std::string text = FormatMetrics(registry.Snapshot());
  EXPECT_NE(text.find("a.ops"), std::string::npos);
  EXPECT_NE(text.find("b.level"), std::string::npos);
  EXPECT_NE(text.find("c.seconds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, AssignsIncreasingIdsAndKeepsOrder) {
  Tracer tracer(Tracer::ClockDomain::kVirtual);
  TraceSpan a;
  a.name = "first";
  TraceSpan b;
  b.name = "second";
  const int64_t ia = tracer.AddSpan(a);
  const int64_t ib = tracer.AddSpan(b);
  EXPECT_GT(ia, 0);
  EXPECT_GT(ib, ia);
  const std::vector<TraceSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "first");
  EXPECT_EQ(spans[1].name, "second");
}

TEST(TracerTest, TaskSpansNestUnderOpenJob) {
  Tracer tracer(Tracer::ClockDomain::kVirtual);
  const int64_t job = tracer.BeginJob("mm");

  TraceSpan task;
  task.name = "task 0";
  task.category = "task";
  task.machine = 0;
  task.start_seconds = 0.0;
  task.duration_seconds = 2.0;
  const int64_t task_id = tracer.AddSpan(task);

  tracer.AdvanceTime(5.0);  // the engine advances by the job makespan
  tracer.EndJob(job);

  // A span recorded after the job closed is top-level again.
  TraceSpan stray;
  stray.name = "outside";
  const int64_t stray_id = tracer.AddSpan(stray);

  for (const TraceSpan& s : tracer.spans()) {
    if (s.id == task_id) {
      EXPECT_EQ(s.parent_id, job);
    }
    if (s.id == job) {
      EXPECT_EQ(s.parent_id, 0);
      EXPECT_DOUBLE_EQ(s.start_seconds, 0.0);
      EXPECT_DOUBLE_EQ(s.duration_seconds, 5.0);  // offset advance
    }
    if (s.id == stray_id) {
      EXPECT_EQ(s.parent_id, 0);
    }
  }
}

TEST(TracerTest, ConsecutiveJobsStackOnTheTimeline) {
  Tracer tracer(Tracer::ClockDomain::kVirtual);
  const int64_t j1 = tracer.BeginJob("one");
  tracer.AdvanceTime(3.0);
  tracer.EndJob(j1);
  const int64_t j2 = tracer.BeginJob("two");
  tracer.AdvanceTime(4.0);
  tracer.EndJob(j2);
  EXPECT_DOUBLE_EQ(tracer.time_offset(), 7.0);

  const std::vector<TraceSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0].end_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(spans[1].start_seconds, 3.0);
  EXPECT_DOUBLE_EQ(spans[1].end_seconds(), 7.0);
}

TEST(TracerTest, ThreadSafeUnderConcurrentAddSpan) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  Tracer tracer;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan s;
        s.name = "t";
        s.machine = t;
        s.duration_seconds = 0.001;
        tracer.AddSpan(s);
      }
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(tracer.span_count(), int64_t{kThreads} * kPerThread);
}

TEST(TracerTest, ChromeExportIsValidJsonWithOneEventPerSpan) {
  Tracer tracer(Tracer::ClockDomain::kVirtual);
  const int64_t job = tracer.BeginJob("mm \"quoted\" name\\with\nspecials");
  TraceSpan task;
  task.name = "task";
  task.category = "task";
  task.machine = 2;
  task.slot = 1;
  task.start_seconds = 0.5;
  task.duration_seconds = 1.5;
  task.args.emplace_back("bytes_read", 4096.0);
  tracer.AddSpan(task);
  tracer.AdvanceTime(2.0);
  tracer.EndJob(job);

  const std::string json = tracer.ToChromeJson();
  JsonChecker checker(json);
  ASSERT_TRUE(checker.Valid()) << json;

  // One "X" complete event per span, plus metadata events.
  size_t x_events = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++x_events;
  }
  EXPECT_EQ(x_events, static_cast<size_t>(tracer.span_count()));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_read\""), std::string::npos);
  EXPECT_NE(json.find("\"virtual\""), std::string::npos);
}

TEST(TracerTest, GlobalTracerInstallAndReset) {
  EXPECT_EQ(GlobalTracer(), nullptr);
  Tracer tracer;
  SetGlobalTracer(&tracer);
  EXPECT_EQ(GlobalTracer(), &tracer);
  SetGlobalTracer(nullptr);
  EXPECT_EQ(GlobalTracer(), nullptr);
}

// ---------------------------------------------------------------------------
// Dual accounting: the executor's cache figures, the exec.cache.* metrics,
// and the TileCacheGroup's own counters must tell the same story for one
// real-mode run: with blocking reads and with the prefetch pool (where a
// request's cache lookup and its DFS read run on different threads), and
// with a cache that never fills or one that declines admissions.
// ---------------------------------------------------------------------------

// A roomy cache never fills; a full one holds 8 of the 32 KiB tiles.
constexpr int64_t kRoomyCacheBytes = 64 << 20;
constexpr int64_t kFullCacheBytes = 256 << 10;

struct DualAccountingCase {
  const char* name;
  bool prefetch;
  int64_t cache_bytes_per_node;

  friend void PrintTo(const DualAccountingCase& c, std::ostream* os) {
    *os << c.name;
  }
};

class DualAccountingTest
    : public ::testing::TestWithParam<DualAccountingCase> {};

TEST_P(DualAccountingTest, ExecutorCacheFiguresMatchTileCacheCounters) {
  const DualAccountingCase& mode = GetParam();
  DfsOptions dfs_options;
  dfs_options.num_nodes = 4;
  dfs_options.replication = 2;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);
  MetricsRegistry metrics;
  store.AttachMetrics(&metrics);
  if (mode.prefetch) store.EnablePrefetch();

  TiledMatrix a{"A", TileLayout::Square(256, 256, 64)};
  TiledMatrix b{"B", TileLayout::Square(256, 256, 64)};
  TiledMatrix c{"C", TileLayout::Square(256, 256, 64)};
  Rng rng(7);
  ASSERT_TRUE(GenerateMatrix(a, FillKind::kGaussian, 0, &rng, &store).ok());
  ASSERT_TRUE(GenerateMatrix(b, FillKind::kGaussian, 0, &rng, &store).ok());

  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RealEngineOptions engine_options;
  engine_options.enable_tile_cache = true;
  engine_options.cache_bytes_per_node = mode.cache_bytes_per_node;
  RealEngine engine(cluster, engine_options);
  store.AttachCaches(engine.tile_caches());

  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.job_startup_seconds = 0.0;
  exec_options.metrics = &metrics;
  Executor executor(&store, &engine, &cost, exec_options);
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{1, 1, 0}, {}, &plan).ok());
  auto stats = executor.Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();

  const TileCacheStats cache_totals = engine.tile_caches()->TotalStats();
  store.AttachCaches(nullptr);
  if (mode.cache_bytes_per_node == kFullCacheBytes) {
    ASSERT_GT(cache_totals.rejections, 0) << "full cache never declined";
  } else {
    ASSERT_GT(cache_totals.hits, 0) << "cache never hit; test is vacuous";
  }

  // Executor-reported figures == the cache group's own counters.
  EXPECT_EQ(stats->cache_hits, cache_totals.hits);
  EXPECT_EQ(stats->cache_misses, cache_totals.misses);
  EXPECT_EQ(stats->bytes_read_cached, cache_totals.hit_bytes);

  // == the run's metric deltas, through both counter families: the
  // executor's exec.cache.* fold and the store's own cache.* counters.
  EXPECT_EQ(stats->metrics.CounterOr("exec.cache.hits", -1),
            cache_totals.hits);
  EXPECT_EQ(stats->metrics.CounterOr("exec.cache.misses", -1),
            cache_totals.misses);
  EXPECT_EQ(stats->metrics.CounterOr("exec.cache.hit_bytes", -1),
            cache_totals.hit_bytes);
  EXPECT_EQ(stats->metrics.CounterOr("cache.hits", -1), cache_totals.hits);
  EXPECT_EQ(stats->metrics.CounterOr("cache.misses", -1),
            cache_totals.misses);
  EXPECT_EQ(stats->metrics.CounterOr("cache.hit_bytes", -1),
            cache_totals.hit_bytes);
  EXPECT_EQ(stats->metrics.CounterOr("cache.rejected", -1),
            cache_totals.rejections);

  // The resident-footprint gauges mirror the group's live state at the
  // end of the run.
  const MetricsSnapshot end = metrics.Snapshot();
  EXPECT_EQ(end.gauges.at("cache.resident_bytes"),
            cache_totals.resident_bytes);
  EXPECT_EQ(end.gauges.at("cache.resident_tiles"),
            cache_totals.resident_tiles);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DualAccountingTest,
    ::testing::Values(
        DualAccountingCase{"PrefetchOff", false, kRoomyCacheBytes},
        DualAccountingCase{"PrefetchOn", true, kRoomyCacheBytes},
        DualAccountingCase{"PrefetchOffFullCache", false, kFullCacheBytes},
        DualAccountingCase{"PrefetchOnFullCache", true, kFullCacheBytes}),
    [](const ::testing::TestParamInfo<DualAccountingCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cumulon
