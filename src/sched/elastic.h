#ifndef CUMULON_SCHED_ELASTIC_H_
#define CUMULON_SCHED_ELASTIC_H_

#include "cloud/machine.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace cumulon {

/// Bounds and targets of the elastic re-planning loop (the paper's
/// elasticity story: grow the cluster with cheap transient machines under
/// backlog, shrink back when idle, and never let the expected revocation
/// rework eat the discount).
struct ElasticPolicy {
  int min_machines = 1;
  int max_machines = 16;

  /// The fleet is sized so each machine carries at most this much of the
  /// estimated backlog; more queued seconds per machine scales out.
  double target_backlog_seconds_per_machine = 120.0;

  /// Shrink to min_machines when the backlog is empty (idle epochs cost
  /// money under hourly billing either way; per-second billing makes the
  /// shrink pay off immediately).
  bool scale_in_when_idle = true;

  /// At most this fraction of the fleet may be transient: a reserved
  /// on-demand core keeps the whole fleet from vanishing at once.
  double max_spot_fraction = 0.75;
};

/// The fleet a decision provisions: `machines` total, of which the last
/// `spot_machines` are transient (on-demand machines keep the low indices,
/// matching RevocationSchedule::Sample's first_transient_machine split).
struct FleetState {
  int machines = 0;
  int spot_machines = 0;

  int on_demand_machines() const { return machines - spot_machines; }
};

/// One re-planning step's outcome.
struct FleetDecision {
  FleetState fleet;
  bool scaled_out = false;
  bool scaled_in = false;

  /// The analytic rework multiplier the chosen spot mix carries
  /// (cost/cost_model.h ExpectedRevocationSlowdown); 1.0 for a pure
  /// on-demand fleet.
  double expected_slowdown = 1.0;
};

/// Online fleet sizing: turns a backlog estimate into the cheapest fleet
/// that drains it within the horizon, mixing discounted transient machines
/// in as long as their expected revocation rework keeps the effective
/// price-rate below on-demand and the slowdown within `max_slowdown`.
/// Emits sched.replan.* metrics (see docs/observability.md). Deterministic:
/// no clocks, no randomness — decisions depend only on the arguments.
class ElasticProvisioner {
 public:
  /// `spot_discount` / `spot_hazard_per_hour` describe the spot market the
  /// provisioner may buy from. Metrics borrowed; disabled when null.
  ElasticProvisioner(const ElasticPolicy& policy, double spot_discount,
                     double spot_hazard_per_hour,
                     MetricsRegistry* metrics = nullptr);

  /// Picks the next fleet for `backlog_seconds` of queued work over the
  /// coming `horizon_seconds` epoch. `max_slowdown` caps the acceptable
  /// rework multiplier (deadline pressure → lower cap → fewer spot
  /// machines).
  FleetDecision Replan(const FleetState& current, double backlog_seconds,
                       double horizon_seconds, double max_slowdown) const;

  const ElasticPolicy& policy() const { return policy_; }
  double spot_discount() const { return spot_discount_; }
  double spot_hazard_per_hour() const { return spot_hazard_per_hour_; }

 private:
  ElasticPolicy policy_;
  double spot_discount_;
  double spot_hazard_per_hour_;
  MetricsRegistry* metrics_;
};

class WorkloadManager;

struct ElasticControllerOptions {
  ElasticPolicy policy;

  /// Task slots each provisioned machine adds to the manager's slot total.
  int slots_per_machine = 2;

  /// Destination of the sched.replan.* metrics. Borrowed; may be null.
  MetricsRegistry* metrics = nullptr;
};

/// The provisioner above, following a live WorkloadManager. Each Tick
/// reads the manager's actual queue backlog, asks the provisioner for the
/// next fleet over a 120 s epoch (buying from cloud/machine.h's default
/// spot market, with at most a 1.25x expected revocation slowdown), and
/// applies the decision by resizing the manager's slot total to machines x
/// slots_per_machine. Running plans pick the new share up at their next
/// job.
///
/// Thread-safe; the service daemon ticks it from a background thread.
class ElasticFleetController {
 public:
  ElasticFleetController(const FleetState& initial,
                         const ElasticControllerOptions& options);

  /// One control epoch: re-plan against `manager`'s BacklogSeconds() and
  /// resize its slot total. Returns the decision taken.
  FleetDecision Tick(WorkloadManager* manager);

  FleetState fleet() const;
  int slots() const;
  const ElasticControllerOptions& options() const { return options_; }

 private:
  ElasticControllerOptions options_;
  ElasticProvisioner provisioner_;
  mutable Mutex mu_{"ElasticFleetController::mu_"};
  FleetState fleet_ CUMULON_GUARDED_BY(mu_);
};

}  // namespace cumulon

#endif  // CUMULON_SCHED_ELASTIC_H_
