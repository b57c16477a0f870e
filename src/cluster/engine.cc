#include "cluster/engine.h"

#include <algorithm>

namespace cumulon {
namespace {

/// PlaceTasks' matching of tasks to preferred machines, each machine
/// holding at most `cap` of them.
struct LocalMatching {
  const JobSpec& job;
  int machines;
  size_t cap;
  std::vector<int> placement;                // -1 = not matched
  std::vector<std::vector<int>> on_machine;  // matched tasks per machine
  std::vector<int> seen;  // search that last visited each machine
  int search = 0;

  bool InRange(int m) const { return m >= 0 && m < machines; }

  /// Matches `task` to its least-loaded preferred machine with room, or
  /// else moves a task off one of its full preferred machines along an
  /// augmenting path. False when no path exists; nothing moves then.
  bool Augment(int task) {
    const std::vector<int>& prefs = job.tasks[task].preferred_machines;
    int roomy = -1;
    for (int m : prefs) {
      if (!InRange(m) || on_machine[m].size() >= cap) continue;
      if (roomy < 0 || on_machine[m].size() < on_machine[roomy].size()) {
        roomy = m;
      }
    }
    if (roomy >= 0) {
      on_machine[roomy].push_back(task);
      placement[task] = roomy;
      return true;
    }
    // Every preferred machine is full, so a deeper search never adds to
    // the ones it passes through: their task lists stay put while it runs.
    for (int m : prefs) {
      if (!InRange(m) || seen[m] == search) continue;
      seen[m] = search;
      for (int& holder : on_machine[m]) {
        if (Augment(holder)) {
          holder = task;
          placement[task] = m;
          return true;
        }
      }
    }
    return false;
  }
};

}  // namespace

std::vector<int> PlaceTasks(const JobSpec& job, int machines,
                            int slots_per_machine, bool use_preferences) {
  const int tasks = static_cast<int>(job.tasks.size());
  const int cap =
      std::max((tasks + machines - 1) / machines, slots_per_machine);
  LocalMatching match{job,
                      machines,
                      static_cast<size_t>(cap),
                      std::vector<int>(tasks, -1),
                      std::vector<std::vector<int>>(machines),
                      std::vector<int>(machines, -1)};
  if (use_preferences) {
    for (int t = 0; t < tasks; ++t) {
      match.search = t;
      match.Augment(t);
    }
  }
  std::vector<int> load(machines);
  for (int m = 0; m < machines; ++m) {
    load[m] = static_cast<int>(match.on_machine[m].size());
  }
  // The least-loaded machine is always under the cap, because the cap
  // times the machine count covers the job.
  std::vector<int>& placement = match.placement;
  for (int t = 0; t < tasks; ++t) {
    if (placement[t] >= 0) continue;
    const int start = t % machines;
    int chosen = start;
    for (int step = 1; step < machines; ++step) {
      const int m = (start + step) % machines;
      if (load[m] < load[chosen]) chosen = m;
    }
    placement[t] = chosen;
    ++load[chosen];
  }
  return std::move(placement);
}

}  // namespace cumulon
