#ifndef CUMULON_OBS_TRACE_H_
#define CUMULON_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace cumulon {

/// One closed interval on the execution timeline. Task spans live on a
/// (machine, slot) lane; job and startup spans live on the driver lane
/// (machine = -1). Times are absolute trace seconds: wall-clock seconds in
/// real mode, virtual-clock seconds in sim mode — both offset by the
/// tracer's running time offset so consecutive jobs line up end to end.
struct TraceSpan {
  int64_t id = 0;  // assigned by the tracer, > 0
  /// Enclosing job span. 0 = unknown: the tracer parents the span under
  /// the innermost open job, which is only right when one plan traces at a
  /// time — concurrent producers pass the job span id explicitly
  /// (JobSpec::trace_parent_span). -1 = explicitly top level (recorded as
  /// 0, never inferred).
  int64_t parent_id = 0;
  std::string name;
  std::string category;  // "job", "task", "startup"
  int machine = -1;      // -1 = driver/coordinator lane
  int slot = 0;          // task: one of machines x slots lanes (both modes)
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  double end_seconds() const { return start_seconds + duration_seconds; }

  /// Numeric annotations (queue_wait_seconds, bytes_read, cached_bytes,
  /// local, ...), exported as Chrome trace args.
  std::vector<std::pair<std::string, double>> args;
};

/// Collects spans from the executor and the engines and exports them as
/// Chrome trace_event JSON (chrome://tracing / Perfetto: one row per
/// machine, one lane per slot). Thread-safe: the real engine records task
/// spans from pool threads.
///
/// The tracer carries a monotone *time offset*: engines stamp spans
/// relative to their per-job clock (the sim engine's virtual clock restarts
/// at 0 every job) plus the current offset, then advance the offset by the
/// job's makespan, so simulated schedules concatenate into one inspectable
/// timeline whose total span is the predicted plan time.
class Tracer {
 public:
  enum class ClockDomain { kWall, kVirtual };

  explicit Tracer(ClockDomain domain = ClockDomain::kWall)
      : domain_(domain) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a completed span. `span.start_seconds` must already be
  /// absolute (caller adds time_offset()). Fills id and, for spans with no
  /// explicit parent, the currently open job. Returns the span id.
  int64_t AddSpan(TraceSpan span);

  /// Opens a job span starting at the current time offset. Task spans
  /// recorded until the matching EndJob are parented under it (unless they
  /// carry an explicit parent_id). `lane` selects the driver-row lane the
  /// job span renders on: concurrent plans pass their plan id so their job
  /// spans do not interleave on one lane (serial runs keep lane 0).
  int64_t BeginJob(const std::string& name, int lane = 0);

  /// Closes the job span: its duration becomes the time-offset advance
  /// since BeginJob (the engine advanced the offset by the job makespan).
  void EndJob(int64_t job_id);

  /// Advances the timeline cursor (end of a job's makespan, per-job
  /// startup latency, ...).
  void AdvanceTime(double seconds);
  double time_offset() const;

  ClockDomain clock_domain() const { return domain_; }

  std::vector<TraceSpan> spans() const;
  int64_t span_count() const;

  /// {"traceEvents":[...]} with "X" complete events (ts/dur in
  /// microseconds), process metadata naming each machine row and thread
  /// metadata naming each slot lane. Loadable by chrome://tracing and
  /// Perfetto.
  std::string ToChromeJson() const;

  Status WriteChromeJson(const std::string& path) const;

 private:
  const ClockDomain domain_;
  mutable Mutex mu_{"Tracer::mu_"};
  std::vector<TraceSpan> spans_ CUMULON_GUARDED_BY(mu_);
  std::vector<int64_t> open_jobs_ CUMULON_GUARDED_BY(mu_);  // innermost last
  int64_t next_id_ CUMULON_GUARDED_BY(mu_) = 1;
  double time_offset_ CUMULON_GUARDED_BY(mu_) = 0.0;
};

/// Process-wide tracer used by engines and executors whose options carry no
/// explicit tracer. Null (tracing off) until SetGlobalTracer; the pointer
/// is borrowed and must outlive its use.
Tracer* GlobalTracer();
void SetGlobalTracer(Tracer* tracer);

}  // namespace cumulon

#endif  // CUMULON_OBS_TRACE_H_
