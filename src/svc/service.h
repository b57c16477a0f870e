#ifndef CUMULON_SVC_SERVICE_H_
#define CUMULON_SVC_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/sim_engine.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/predictor.h"
#include "sched/elastic.h"
#include "sched/workload_manager.h"
#include "svc/json.h"
#include "svc/message.h"
#include "svc/session.h"

namespace cumulon {

/// Tenant-visible plan lifecycle. REJECTED plans (quota or admission) get
/// a plan id and a terminal record too, so a tenant can poll the verdict
/// it was refused with.
enum class SvcPlanState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kRejected,
};

const char* SvcPlanStateName(SvcPlanState state);

struct ServiceOptions {
  /// Directory for the drain file (queued_plans.json). "" = drain
  /// persistence off; restore is attempted from here at construction.
  std::string state_dir;

  /// Machine type of the simulated fleet.
  MachineProfile machine;

  /// Elastic fleet bounds; the engine is provisioned for max_machines and
  /// the manager's slot total starts at initial_machines, so scale-out
  /// never needs a new engine.
  ElasticPolicy elastic;
  int slots_per_machine = 2;
  int initial_machines = 0;  // 0 = elastic.min_machines
  bool enable_elastic = true;
  double elastic_interval_seconds = 0.25;

  /// Reaper cadence: how often plan records absorb terminal outcomes.
  double reaper_interval_seconds = 0.02;

  SchedPolicy policy = SchedPolicy::kFairShare;
  int max_concurrent_plans = 4;

  /// Hold admitted plans in the queue until manager()->Start() — lets
  /// tests pin plans in the queued state (e.g. to drain deterministically
  /// with a known set of unstarted plans). The daemon runs with false.
  bool defer_start = false;

  /// Scale passed to the lang catalog workloads (mm-* ignores it).
  double scale = 1.0;
  int64_t tile_dim = 2048;

  /// Tenant auth and quotas. Its metrics/tracer fields are overwritten
  /// with the service's own.
  SessionOptions session;

  /// Cost model, lowering and sim knobs for estimates and execution
  /// (lowering.tile_dim is overwritten with `tile_dim`).
  PredictorOptions predictor;

  /// Destination of the svc.*/sched.*/exec.* metrics. Borrowed; the
  /// service owns a private registry when null.
  MetricsRegistry* metrics = nullptr;

  /// Records wall-clock "session" and "rpc" spans (one lane per session).
  /// The manager's virtual-clock plan spans stay off — the two clock
  /// domains do not share a timeline. Borrowed; may be null.
  Tracer* tracer = nullptr;

  /// Test-only: mutates every freshly lowered plan before the SUBMIT-time
  /// verifier sees it. SUBMIT carries catalog workload names (never raw
  /// plans), so this is the hook tests use to corrupt a valid plan and
  /// assert the typed verify.* rejection reaches the wire.
  std::function<void(PhysicalPlan*)> plan_mutator_for_test;
};

/// The daemon behind `cumulon serve`: one shared simulated cluster, a
/// WorkloadManager front door, tenant sessions with quotas, pollable plan
/// records, elastic fleet control against the live backlog, and graceful
/// drain with queued-plan persistence. Transport-free — Dispatch consumes
/// one decoded request frame and produces one response frame, so the same
/// object serves socket handlers (svc/server.h), in-process transports
/// (svc/client.h) and unit tests.
///
/// Thread-safe: Dispatch may be called from any number of connection
/// threads concurrently.
class CumulonService {
 public:
  explicit CumulonService(const ServiceOptions& options);
  ~CumulonService();

  CumulonService(const CumulonService&) = delete;
  CumulonService& operator=(const CumulonService&) = delete;

  /// Handles one protocol request; always returns a response frame (an
  /// ERROR frame on any failure — this never throws away a request).
  JsonValue Dispatch(const JsonValue& request);

  /// Connection teardown: closes the session (its plans keep running).
  void CloseSession(int64_t session_id);

  /// True once a DRAIN request has completed; the server then stops.
  bool drained() const;

  /// Queued-but-unstarted plans restored from the drain file at startup.
  int restored_plans() const;

  MetricsRegistry* metrics() { return metrics_; }
  WorkloadManager* manager() { return &manager_; }
  SessionManager* sessions() { return &sessions_; }
  ElasticFleetController* elastic() { return controller_.get(); }

 private:
  struct PlanRecord {
    int64_t id = 0;
    std::string tenant;
    SubmitRequest request;
    SvcPlanState state = SvcPlanState::kQueued;
    int64_t cursor = 1;  // bumped on every state change
    bool terminal = false;
    AdmissionEstimate estimate;
    int64_t mgr_id = 0;  // 0 for rejected plans
    double submit_wall_seconds = 0.0;
    double finish_wall_seconds = 0.0;
    Status reject_status;  // kRejected only
    PlanOutcome outcome;   // valid once terminal via the manager
  };

  JsonValue HandleHello(const JsonValue& request);
  JsonValue HandleSubmit(const JsonValue& request);
  JsonValue HandlePoll(const JsonValue& request);
  JsonValue HandleResult(const JsonValue& request);
  JsonValue HandleCancel(const JsonValue& request);
  JsonValue HandleStats(const JsonValue& request);
  JsonValue HandleDrain(const JsonValue& request);

  /// The shared SUBMIT path: quota gate, estimate, lowering, manager
  /// admission. `restored` marks drain-file replays (svc.restore.*
  /// counters; no draining gate).
  JsonValue SubmitInternal(const SubmitRequest& request, bool restored);

  /// Per-class admission estimate, computed once and cached. Unknown
  /// workloads yield the typed workload.unknown error.
  Result<AdmissionEstimate> EstimateFor(const std::string& workload);

  /// Looks up `plan` for `tenant` (typed plan.unknown / plan.foreign) and
  /// copies the record out.
  Result<PlanRecord> FindPlan(int64_t plan_id, const std::string& tenant) const;

  /// Session resolution for one request frame.
  Result<std::string> TenantForRequest(const JsonValue& request) const;

  /// Absorbs manager-side state changes into the plan records: queued ->
  /// running transitions and terminal outcomes (releasing quota slots and
  /// recording completion latency).
  void PollOutcomes();

  void ReaperLoop();
  void StopReaper();

  int InflightLocked() const CUMULON_REQUIRES(mu_);
  std::string DrainFilePath() const;
  void RestoreFromDisk();

  ServiceOptions options_;
  MetricsRegistry* metrics_;  // options_.metrics or &owned_metrics_
  MetricsRegistry owned_metrics_;
  Stopwatch wall_clock_;

  SimDfs dfs_;
  DfsTileStore store_;
  SimEngine engine_;
  TileOpCostModel cost_;
  WorkloadManager manager_;
  SessionManager sessions_;
  std::unique_ptr<ElasticFleetController> controller_;

  mutable Mutex mu_{"CumulonService::mu_"};
  int64_t next_plan_id_ CUMULON_GUARDED_BY(mu_) = 1;
  std::map<int64_t, PlanRecord> records_ CUMULON_GUARDED_BY(mu_);
  std::map<int64_t, int64_t> mgr_to_svc_ CUMULON_GUARDED_BY(mu_);
  std::map<std::string, AdmissionEstimate> estimates_ CUMULON_GUARDED_BY(mu_);
  bool draining_ CUMULON_GUARDED_BY(mu_) = false;
  bool drained_ CUMULON_GUARDED_BY(mu_) = false;
  int64_t persisted_plans_ CUMULON_GUARDED_BY(mu_) = 0;
  int restored_plans_ = 0;  // written before the reaper starts

  Mutex reaper_mu_{"CumulonService::reaper_mu_"};
  CondVar reaper_cv_;
  bool stop_reaper_ CUMULON_GUARDED_BY(reaper_mu_) = false;
  std::thread reaper_;
};

}  // namespace cumulon

#endif  // CUMULON_SVC_SERVICE_H_
