#ifndef CUMULON_CLOUD_REVOCATION_H_
#define CUMULON_CLOUD_REVOCATION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"

namespace cumulon {

/// One transient-machine loss: the provider reclaims `machine` at
/// `time_seconds` on the schedule's clock (cumulative engine time for the
/// sim engine, wall time since arming for the real engine).
struct RevocationEvent {
  int machine = -1;
  double time_seconds = 0.0;
};

/// A deterministic set of revocation events — the seeded fault-injection
/// plan that both engines replay. Each machine is revoked at most once
/// (spot capacity is not re-acquired mid-schedule; the elastic provisioner
/// models replacement by re-planning the fleet between jobs).
class RevocationSchedule {
 public:
  RevocationSchedule() = default;

  /// A hand-written schedule (tests, golden traces). Events for the same
  /// machine keep only the earliest; negative machines are dropped.
  static RevocationSchedule Scripted(std::vector<RevocationEvent> events);

  /// Samples each transient machine's revocation instant from the
  /// exponential arrival law implied by `hazard_per_hour`, keeping only
  /// instants inside `horizon_seconds`. Machines below
  /// `first_transient_machine` are on-demand and never revoked.
  /// Deterministic in `seed`: same seed, same instants.
  static RevocationSchedule Sample(uint64_t seed, int num_machines,
                                   double hazard_per_hour,
                                   double horizon_seconds,
                                   int first_transient_machine = 0);

  const std::vector<RevocationEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// When `machine` is revoked, or +inf if it survives the schedule.
  double RevokedAtSeconds(int machine) const;

  static constexpr double kNever = std::numeric_limits<double>::infinity();

 private:
  std::vector<RevocationEvent> events_;  // sorted by time, one per machine
};

/// Injects one RevocationSchedule into an engine. The controller owns the
/// schedule's clock mapping and the fired-once bookkeeping, so the exact
/// same schedule drives simulated runs (virtual clock) and real runs (wall
/// clock), and a machine's loss is observed — cache invalidated, counters
/// bumped, "revoke" span emitted — exactly once even when several jobs run
/// after the instant.
///
/// Clock domains:
///  - Sim engines run every job on a virtual clock restarting at 0. The
///    controller keeps a cumulative origin: a job sees machine m dead at
///    job-relative time RevokedAtSeconds(m) - origin_seconds(), and the
///    engine advances the origin by each job's makespan when it finishes.
///    Schedule time is therefore cumulative engine-busy time; executor
///    job-startup gaps do not consume it.
///  - Real engines call WallNowSeconds(), which arms a stopwatch on first
///    use; schedule time is wall seconds since arming.
///
/// Thread-safe; shared by the engine's driver and pool workers.
class RevocationController {
 public:
  explicit RevocationController(RevocationSchedule schedule);

  const RevocationSchedule& schedule() const { return schedule_; }

  /// Absolute (schedule-clock) revocation instant of `machine`; +inf when
  /// the schedule never revokes it.
  double RevokedAtSeconds(int machine) const {
    return schedule_.RevokedAtSeconds(machine);
  }

  bool IsRevokedAt(int machine, double abs_seconds) const {
    return abs_seconds >= RevokedAtSeconds(machine);
  }

  // --- virtual-clock domain (sim engine) --------------------------------
  double origin_seconds() const;
  void AdvanceOrigin(double seconds);

  // --- wall-clock domain (real engine) ----------------------------------
  /// Seconds since the first call (which arms the clock).
  double WallNowSeconds();

  /// Marks machine `machine`'s revocation as observed; true exactly once
  /// per machine across the controller's lifetime. Engines gate the
  /// one-shot consequences of a loss (tile-cache invalidation, the
  /// cluster.revoked.machines counter, the "revoke" trace span) on this.
  bool ClaimFired(int machine);

  /// How many machines have been claimed so far (fired revocations).
  int fired_count() const;

  /// The machine that task number `task` of a job moves to when it leaves
  /// `from`: of the machines in [0, num_machines) still alive at
  /// `abs_seconds`, scanned in order after `from` and wrapping, the
  /// (task / num_machines)-th, modulo their count. PlaceTasks puts tasks
  /// without preferences round-robin, so a machine holds tasks from,
  /// from + n, from + 2n, ..., and a revoked machine's tasks go round-robin
  /// over the survivors instead of piling onto one. Both engines relocate
  /// by it, so they agree. Returns -1 when the whole fleet is revoked.
  int FallbackMachine(int from, size_t task, int num_machines,
                      double abs_seconds) const;

 private:
  const RevocationSchedule schedule_;

  mutable Mutex mu_{"RevocationController::mu_"};
  double origin_seconds_ CUMULON_GUARDED_BY(mu_) = 0.0;
  bool wall_armed_ CUMULON_GUARDED_BY(mu_) = false;
  Stopwatch wall_clock_ CUMULON_GUARDED_BY(mu_);
  std::vector<bool> fired_ CUMULON_GUARDED_BY(mu_);  // by event index
};

}  // namespace cumulon

#endif  // CUMULON_CLOUD_REVOCATION_H_
