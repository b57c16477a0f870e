#include "opt/elastic.h"

#include <algorithm>
#include <map>
#include <utility>

#include "cloud/revocation.h"
#include "common/strings.h"

namespace cumulon {

namespace {

ClusterConfig FleetCluster(const SpotWorkloadOptions& options, int machines) {
  ClusterConfig cluster;
  cluster.machine = options.machine;
  cluster.num_machines = std::max(machines, 1);
  cluster.slots_per_machine = options.slots_per_machine;
  return cluster;
}

}  // namespace

Result<SpotWorkloadResult> RunSpotWorkload(
    const std::vector<SpotSubmission>& submissions,
    const SpotWorkloadOptions& options) {
  SpotWorkloadResult result;

  ElasticProvisioner provisioner(options.policy, kDefaultSpotDiscount,
                                 options.spot_hazard_per_hour,
                                 options.predictor.metrics);
  SpotPriceProcess price_process(options.seed);
  const MachineProfile spot_profile = SpotVariant(
      options.machine, kDefaultSpotDiscount, options.spot_hazard_per_hour);

  FleetState fleet;
  fleet.machines = std::clamp(options.policy.min_machines, 1,
                              std::max(options.policy.max_machines, 1));
  fleet.spot_machines = 0;

  // Admission estimates depend only on (program, fleet size); arrivals of
  // the same program re-use them instead of re-simulating.
  std::map<std::pair<std::string, int>, AdmissionEstimate> estimate_cache;
  auto estimate = [&](const SpotSubmission& s,
                      int machines) -> Result<AdmissionEstimate> {
    const auto key = std::make_pair(s.name, machines);
    auto it = estimate_cache.find(key);
    if (it != estimate_cache.end()) return it->second;
    CUMULON_ASSIGN_OR_RETURN(
        AdmissionEstimate est,
        EstimateForAdmission(s.spec, FleetCluster(options, machines),
                             options.predictor));
    estimate_cache.emplace(key, est);
    return est;
  };

  double now = 0.0;
  uint64_t epoch = 0;
  for (const SpotSubmission& s : submissions) {
    now = std::max(now, s.arrival_seconds);
    SpotRunOutcome outcome;
    outcome.name = s.name;
    outcome.start_seconds = now;

    CUMULON_ASSIGN_OR_RETURN(AdmissionEstimate est,
                             estimate(s, fleet.machines));

    // Budget admission on the on-demand estimate: spot mixes only get
    // cheaper, so a submission that cannot afford on-demand time at the
    // estimated duration is rejected outright.
    if (s.budget_dollars > 0.0 && est.dollars > s.budget_dollars) {
      outcome.rejection = StrCat("estimated cost $", est.dollars,
                                 " exceeds budget $", s.budget_dollars);
      ++result.rejected;
      result.outcomes.push_back(std::move(outcome));
      continue;
    }
    // Deadline admission: the work must fit before the deadline on the
    // current fleet with 15 % headroom.
    constexpr double kDeadlineSlack = 1.15;
    double max_slowdown = 10.0;
    if (s.deadline_seconds > 0.0) {
      const double remaining = s.deadline_seconds - now;
      const double needed = est.seconds * kDeadlineSlack;
      if (needed > remaining) {
        outcome.rejection =
            StrCat("estimated ", est.seconds, " s cannot meet deadline at t=",
                   s.deadline_seconds, " (", remaining, " s remain)");
        ++result.rejected;
        result.outcomes.push_back(std::move(outcome));
        continue;
      }
      max_slowdown = std::max(remaining / needed, 1.0);
    }

    // Re-plan the fleet against the queued work. Backlog is machine-seconds
    // of demand: the estimate's wall seconds across the fleet that produced
    // it.
    const double backlog = est.seconds * fleet.machines;
    FleetDecision decision =
        provisioner.Replan(fleet, backlog, est.seconds, max_slowdown);
    if (!options.allow_spot) decision.fleet.spot_machines = 0;
    if (decision.scaled_out) ++result.scale_outs;
    if (decision.scaled_in) ++result.scale_ins;
    fleet = decision.fleet;

    // The epoch's fault plan: every transient machine (the high indices)
    // draws its revocation instant from the hazard, on the controller's
    // virtual clock. The horizon generously covers the run so a slowed-down
    // epoch still sees its late losses.
    ++epoch;
    const double horizon = est.seconds * 4.0 + 3600.0;
    RevocationSchedule schedule = RevocationSchedule::Sample(
        options.seed + epoch * 0x9e3779b97f4a7c15ull, fleet.machines,
        options.spot_hazard_per_hour, horizon, fleet.on_demand_machines());
    RevocationController controller(schedule);

    // Replay the program with the fault plan injected: the simulated
    // schedule pays for every killed attempt's rework, so no analytic
    // slowdown term is applied on top.
    PredictorOptions run_options = options.predictor;
    run_options.sim.revocation = &controller;
    CUMULON_ASSIGN_OR_RETURN(
        PredictionResult run,
        PredictProgram(s.spec, FleetCluster(options, fleet.machines),
                       run_options));

    // Billing: on-demand machines pay list price for the whole epoch; spot
    // machines pay the epoch's market price, clipped at their revocation
    // instant.
    outcome.spot_price_multiplier = price_process.NextMultiplier();
    MachineProfile epoch_spot = spot_profile;
    epoch_spot.price_per_hour *= outcome.spot_price_multiplier;
    double dollars =
        ClusterDollarCost(options.machine, fleet.on_demand_machines(),
                          run.seconds, options.billing);
    for (int m = fleet.on_demand_machines(); m < fleet.machines; ++m) {
      dollars += MachineDollarCostWithRevocation(
          epoch_spot, run.seconds, schedule.RevokedAtSeconds(m),
          options.billing);
    }

    outcome.admitted = true;
    outcome.fleet = fleet;
    outcome.seconds = run.seconds;
    outcome.dollars = dollars;
    outcome.revocations = controller.fired_count();
    outcome.finish_seconds = now + run.seconds;
    outcome.deadline_met =
        s.deadline_seconds <= 0.0 || outcome.finish_seconds <= s.deadline_seconds;

    now = outcome.finish_seconds;
    ++result.admitted;
    result.total_dollars += dollars;
    result.revocations += outcome.revocations;
    if (!outcome.deadline_met) ++result.deadline_misses;
    result.makespan_seconds = std::max(result.makespan_seconds, now);
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace cumulon
