#ifndef CUMULON_OPT_ELASTIC_H_
#define CUMULON_OPT_ELASTIC_H_

#include <string>
#include <vector>

#include "cloud/machine.h"
#include "common/result.h"
#include "opt/predictor.h"
#include "sched/elastic.h"

namespace cumulon {

/// One program arriving at a workload with its service-level terms.
/// deadline_seconds and budget_dollars are absolute (workload clock /
/// whole-run dollars); 0 disables the respective constraint.
struct SpotSubmission {
  std::string name;
  ProgramSpec spec;
  double arrival_seconds = 0.0;
  double deadline_seconds = 0.0;
  double budget_dollars = 0.0;
};

/// Configuration of the elastic spot-provisioning workload runner.
struct SpotWorkloadOptions {
  /// On-demand machine profile the fleet is built from; transient machines
  /// are its SpotVariant at kDefaultSpotDiscount and the hazard below.
  MachineProfile machine;
  int slots_per_machine = 2;

  double spot_hazard_per_hour = kDefaultSpotHazardPerHour;

  /// Master switch: false pins every decision to all-on-demand (the static
  /// baseline the paper compares against).
  bool allow_spot = true;

  ElasticPolicy policy;
  BillingPolicy billing;
  PredictorOptions predictor;

  /// Seeds the per-epoch revocation schedules and the spot price process.
  /// Same seed, same arrivals, same options => bit-identical result.
  uint64_t seed = 19;
};

/// What happened to one submission.
struct SpotRunOutcome {
  std::string name;
  bool admitted = false;
  std::string rejection;       // admission failure reason when !admitted
  FleetState fleet;            // the fleet the epoch ran on
  double start_seconds = 0.0;  // workload clock
  double finish_seconds = 0.0;
  double seconds = 0.0;        // predicted run time, revocations included
  double dollars = 0.0;        // on-demand + revocation-clipped spot charges
  double spot_price_multiplier = 1.0;
  int revocations = 0;  // machines lost during the epoch
  bool deadline_met = true;
};

/// Whole-workload totals.
struct SpotWorkloadResult {
  std::vector<SpotRunOutcome> outcomes;
  double total_dollars = 0.0;
  double makespan_seconds = 0.0;  // workload clock at the last finish
  int admitted = 0;
  int rejected = 0;
  int deadline_misses = 0;
  int revocations = 0;
  int scale_outs = 0;
  int scale_ins = 0;
};

/// The online re-planning loop over a FIFO arrival sequence, in virtual
/// time: for each submission the runner estimates the work ahead, re-plans
/// the fleet (scale out under backlog, scale in when idle, spot machines
/// admitted while their expected revocation rework keeps them profitable
/// and inside the deadline's slowdown budget), samples a seeded revocation
/// schedule for the epoch, and replays the program through the predictor
/// with that schedule injected — so the dollars it reports pay for the
/// rework the losses actually caused, and spot machines are billed at the
/// epoch's market price only up to their revocation instant.
/// Deterministic in (submissions, options); no wall clocks, no real
/// execution.
Result<SpotWorkloadResult> RunSpotWorkload(
    const std::vector<SpotSubmission>& submissions,
    const SpotWorkloadOptions& options);

}  // namespace cumulon

#endif  // CUMULON_OPT_ELASTIC_H_
