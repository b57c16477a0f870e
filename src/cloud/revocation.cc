#include "cloud/revocation.h"

#include <algorithm>
#include <cmath>

namespace cumulon {

namespace {

void SortAndDedup(std::vector<RevocationEvent>* events) {
  // Earliest event per machine wins; order by (time, machine) so iteration
  // is deterministic.
  std::sort(events->begin(), events->end(),
            [](const RevocationEvent& a, const RevocationEvent& b) {
              if (a.time_seconds != b.time_seconds) {
                return a.time_seconds < b.time_seconds;
              }
              return a.machine < b.machine;
            });
  std::vector<RevocationEvent> kept;
  kept.reserve(events->size());
  for (const RevocationEvent& e : *events) {
    if (e.machine < 0) continue;
    const bool seen =
        std::any_of(kept.begin(), kept.end(), [&](const RevocationEvent& k) {
          return k.machine == e.machine;
        });
    if (!seen) kept.push_back(e);
  }
  *events = std::move(kept);
}

}  // namespace

RevocationSchedule RevocationSchedule::Scripted(
    std::vector<RevocationEvent> events) {
  RevocationSchedule schedule;
  schedule.events_ = std::move(events);
  SortAndDedup(&schedule.events_);
  return schedule;
}

RevocationSchedule RevocationSchedule::Sample(uint64_t seed, int num_machines,
                                              double hazard_per_hour,
                                              double horizon_seconds,
                                              int first_transient_machine) {
  RevocationSchedule schedule;
  if (hazard_per_hour <= 0.0 || horizon_seconds <= 0.0) return schedule;
  Rng rng(seed);
  const double lambda_per_sec = hazard_per_hour / 3600.0;
  for (int m = std::max(first_transient_machine, 0); m < num_machines; ++m) {
    // Exponential inter-arrival: t = -ln(1 - u) / lambda. One draw per
    // machine keeps the schedule's RNG consumption independent of the
    // horizon, so replays stay aligned across hazard settings.
    const double u = rng.NextDouble();
    const double t = -std::log1p(-u) / lambda_per_sec;
    if (t < horizon_seconds) {
      schedule.events_.push_back(RevocationEvent{m, t});
    }
  }
  SortAndDedup(&schedule.events_);
  return schedule;
}

double RevocationSchedule::RevokedAtSeconds(int machine) const {
  for (const RevocationEvent& e : events_) {
    if (e.machine == machine) return e.time_seconds;
  }
  return kNever;
}

RevocationController::RevocationController(RevocationSchedule schedule)
    : schedule_(std::move(schedule)) {
  MutexLock lock(&mu_);
  fired_.assign(schedule_.events().size(), false);
}

double RevocationController::origin_seconds() const {
  MutexLock lock(&mu_);
  return origin_seconds_;
}

void RevocationController::AdvanceOrigin(double seconds) {
  MutexLock lock(&mu_);
  origin_seconds_ += seconds;
}

double RevocationController::WallNowSeconds() {
  MutexLock lock(&mu_);
  if (!wall_armed_) {
    wall_armed_ = true;
    wall_clock_.Restart();
    return 0.0;
  }
  return wall_clock_.ElapsedSeconds();
}

bool RevocationController::ClaimFired(int machine) {
  const std::vector<RevocationEvent>& events = schedule_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].machine != machine) continue;
    MutexLock lock(&mu_);
    if (fired_[i]) return false;
    fired_[i] = true;
    return true;
  }
  return false;  // schedule never revokes this machine
}

int RevocationController::fired_count() const {
  MutexLock lock(&mu_);
  return static_cast<int>(std::count(fired_.begin(), fired_.end(), true));
}

int RevocationController::FallbackMachine(int from, size_t task,
                                          int num_machines,
                                          double abs_seconds) const {
  auto candidate = [&](int step) { return (from + step) % num_machines; };
  int live = 0;
  for (int step = 1; step <= num_machines; ++step) {
    if (!IsRevokedAt(candidate(step), abs_seconds)) ++live;
  }
  if (live == 0) return -1;
  size_t skip = task / static_cast<size_t>(num_machines) %
                static_cast<size_t>(live);
  for (int step = 1;; ++step) {
    if (IsRevokedAt(candidate(step), abs_seconds)) continue;
    if (skip-- == 0) return candidate(step);
  }
}

}  // namespace cumulon
