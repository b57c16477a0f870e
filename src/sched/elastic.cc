#include "sched/elastic.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "cost/cost_model.h"
#include "sched/workload_manager.h"

namespace cumulon {

ElasticProvisioner::ElasticProvisioner(const ElasticPolicy& policy,
                                       double spot_discount,
                                       double spot_hazard_per_hour,
                                       MetricsRegistry* metrics)
    : policy_(policy),
      spot_discount_(std::clamp(spot_discount, 0.0, 1.0)),
      spot_hazard_per_hour_(std::max(spot_hazard_per_hour, 0.0)),
      metrics_(metrics) {}

FleetDecision ElasticProvisioner::Replan(const FleetState& current,
                                         double backlog_seconds,
                                         double horizon_seconds,
                                         double max_slowdown) const {
  FleetDecision decision;

  // Size the fleet to the demand: enough machines that none carries more
  // than the per-machine backlog target, within the policy bounds. An
  // empty queue shrinks to the floor when the policy says idle fleets
  // should not be kept warm.
  int target = current.machines;
  if (backlog_seconds > 0.0) {
    const double per_machine =
        std::max(policy_.target_backlog_seconds_per_machine, 1.0);
    target = static_cast<int>(std::ceil(backlog_seconds / per_machine));
  } else if (policy_.scale_in_when_idle) {
    target = policy_.min_machines;
  }
  target = std::clamp(target, std::max(policy_.min_machines, 1),
                      std::max(policy_.max_machines, 1));

  // Choose the spot mix: among 0..floor(target * max_spot_fraction)
  // transient machines, take the cheapest effective price-rate — the
  // fleet's dollar rate times the rework slowdown the mix carries — that
  // stays inside the acceptable slowdown. With no discount (or no hazard
  // model worth trusting) this degenerates to all-on-demand.
  const int max_spot = std::clamp(
      static_cast<int>(std::floor(target * policy_.max_spot_fraction)), 0,
      target);
  const double cap = std::max(max_slowdown, 1.0);
  int best_spot = 0;
  double best_rate = static_cast<double>(target);  // all on-demand, unit price
  double best_slowdown = 1.0;
  for (int spot = 1; spot <= max_spot; ++spot) {
    const double slowdown = ExpectedRevocationSlowdown(
        target, spot, spot_hazard_per_hour_, horizon_seconds);
    if (slowdown > cap) break;  // monotone in spot count
    const double rate =
        ((target - spot) + spot * (1.0 - spot_discount_)) * slowdown;
    if (rate < best_rate) {
      best_rate = rate;
      best_spot = spot;
      best_slowdown = slowdown;
    }
  }

  decision.fleet.machines = target;
  decision.fleet.spot_machines = best_spot;
  decision.expected_slowdown = best_slowdown;
  decision.scaled_out = target > current.machines;
  decision.scaled_in = target < current.machines;

  if (metrics_ != nullptr) {
    metrics_->counter("sched.replan.decisions")->Increment();
    if (decision.scaled_out) {
      metrics_->counter("sched.replan.scale_out")->Increment();
    }
    if (decision.scaled_in) {
      metrics_->counter("sched.replan.scale_in")->Increment();
    }
    metrics_->gauge("sched.replan.fleet_machines")
        ->Set(decision.fleet.machines);
    metrics_->gauge("sched.replan.fleet_spot")
        ->Set(decision.fleet.spot_machines);
  }
  return decision;
}

ElasticFleetController::ElasticFleetController(
    const FleetState& initial, const ElasticControllerOptions& options)
    : options_(options),
      provisioner_(options.policy, kDefaultSpotDiscount,
                   kDefaultSpotHazardPerHour, options.metrics),
      fleet_(initial) {
  CUMULON_CHECK_GT(options_.slots_per_machine, 0);
}

FleetDecision ElasticFleetController::Tick(WorkloadManager* manager) {
  // Each fleet is planned for a 120 s epoch and may carry at most a 1.25x
  // expected revocation slowdown.
  constexpr double kHorizonSeconds = 120.0;
  constexpr double kMaxSlowdown = 1.25;
  const double backlog = manager->BacklogSeconds();
  FleetDecision decision;
  {
    MutexLock lock(&mu_);
    decision = provisioner_.Replan(fleet_, backlog, kHorizonSeconds,
                                   kMaxSlowdown);
    fleet_ = decision.fleet;
  }
  manager->ResizeSlots(decision.fleet.machines * options_.slots_per_machine);
  return decision;
}

FleetState ElasticFleetController::fleet() const {
  MutexLock lock(&mu_);
  return fleet_;
}

int ElasticFleetController::slots() const {
  MutexLock lock(&mu_);
  return fleet_.machines * options_.slots_per_machine;
}

}  // namespace cumulon
