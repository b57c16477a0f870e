#include "opt/search.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "verify/verify.h"

namespace cumulon {

std::string PlanPoint::ToString() const {
  return StrCat(cluster.ToString(), " mm{", mm.ToString(), "} -> ",
                FormatDuration(seconds), ", ", FormatMoney(dollars));
}

namespace {

std::vector<MachineProfile> ResolveMachines(const SearchSpace& space) {
  std::vector<MachineProfile> machines;
  if (space.machine_types.empty()) {
    machines = MachineCatalog();
  } else {
    for (const std::string& name : space.machine_types) {
      auto machine = FindMachine(name);
      if (machine.ok()) machines.push_back(std::move(machine).value());
    }
  }
  return machines;
}

std::vector<int> ResolveClusterSizes(const SearchSpace& space) {
  if (!space.cluster_sizes.empty()) return space.cluster_sizes;
  return {1, 2, 4, 8, 16, 32, 64};
}

std::vector<int> ResolveSlots(const SearchSpace& space,
                              const MachineProfile& machine) {
  if (!space.slots_per_machine.empty()) return space.slots_per_machine;
  std::set<int> slots = {machine.cores, 2 * machine.cores};
  return std::vector<int>(slots.begin(), slots.end());
}

std::vector<MatMulParams> ResolveMmCandidates(const SearchSpace& space) {
  if (!space.mm_candidates.empty()) return space.mm_candidates;
  return {
      MatMulParams{1, 1, 0}, MatMulParams{2, 2, 0}, MatMulParams{4, 4, 0},
      MatMulParams{1, 1, 1}, MatMulParams{1, 1, 4}, MatMulParams{2, 2, 8},
  };
}

}  // namespace

Result<std::vector<PlanPoint>> EnumeratePlans(const ProgramSpec& spec,
                                              const SearchSpace& space,
                                              const PredictorOptions& options) {
  std::vector<PlanPoint> points;
  // Screen the split candidates before any prediction run: Build clamps
  // a malformed candidate (negative bi, bj < 1, negative bk) to some other split, so
  // its plan points would report parameters that never ran. Grid extents
  // are unknown at this shape-generic stage, so only the grid-independent
  // arithmetic applies; job-level grids are re-checked by the tuner and
  // the plan verifier.
  std::vector<MatMulParams> mm_candidates;
  for (const MatMulParams& mm : ResolveMmCandidates(space)) {
    const VerifyReport screened = VerifyMatMulSplit(mm);
    if (!screened.ok()) {
      CUMULON_CHECK(!VerifyChecksAreFatal())
          << "invalid MatMul split candidate: " << screened.ToString();
      continue;
    }
    mm_candidates.push_back(mm);
  }
  for (const MachineProfile& machine : ResolveMachines(space)) {
    for (int n : ResolveClusterSizes(space)) {
      for (int slots : ResolveSlots(space, machine)) {
        ClusterConfig cluster{machine, n, slots};
        bool have_best = false;
        PlanPoint best;
        if (space.use_job_tuner) {
          PredictorOptions opts = options;
          opts.tune_mm_per_job = true;
          CUMULON_ASSIGN_OR_RETURN(PredictionResult prediction,
                                   PredictProgram(spec, cluster, opts));
          // The tuner chooses per-job splits; record the sentinel params.
          best = PlanPoint{cluster, MatMulParams{0, 0, 0},
                           prediction.seconds, prediction.dollars};
          have_best = true;
        } else {
          for (const MatMulParams& mm : mm_candidates) {
            PredictorOptions opts = options;
            opts.lowering.mm_params = [mm](const TileLayout&,
                                           const TileLayout&) { return mm; };
            CUMULON_ASSIGN_OR_RETURN(PredictionResult prediction,
                                     PredictProgram(spec, cluster, opts));
            if (!have_best || prediction.seconds < best.seconds) {
              best = PlanPoint{cluster, mm, prediction.seconds,
                               prediction.dollars};
              have_best = true;
            }
          }
        }
        if (have_best) points.push_back(best);
      }
    }
  }
  std::sort(points.begin(), points.end(),
            [](const PlanPoint& a, const PlanPoint& b) {
              return a.seconds < b.seconds;
            });
  return points;
}

std::vector<PlanPoint> ParetoFrontier(const std::vector<PlanPoint>& points) {
  std::vector<PlanPoint> sorted = points;
  std::sort(sorted.begin(), sorted.end(),
            [](const PlanPoint& a, const PlanPoint& b) {
              if (a.seconds != b.seconds) return a.seconds < b.seconds;
              return a.dollars < b.dollars;
            });
  std::vector<PlanPoint> frontier;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const PlanPoint& p : sorted) {
    if (p.dollars < best_cost) {
      frontier.push_back(p);
      best_cost = p.dollars;
    }
  }
  return frontier;
}

Result<PlanPoint> MinCostUnderDeadline(const std::vector<PlanPoint>& points,
                                       double deadline_seconds) {
  bool found = false;
  PlanPoint best;
  for (const PlanPoint& p : points) {
    if (p.seconds > deadline_seconds) continue;
    if (!found || p.dollars < best.dollars ||
        (p.dollars == best.dollars && p.seconds < best.seconds)) {
      best = p;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound(
        StrCat("no plan meets deadline ", FormatDuration(deadline_seconds)));
  }
  return best;
}

Result<PlanPoint> MinTimeUnderBudget(const std::vector<PlanPoint>& points,
                                     double budget_dollars) {
  bool found = false;
  PlanPoint best;
  for (const PlanPoint& p : points) {
    if (p.dollars > budget_dollars) continue;
    if (!found || p.seconds < best.seconds) {
      best = p;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound(
        StrCat("no plan fits budget ", FormatMoney(budget_dollars)));
  }
  return best;
}

}  // namespace cumulon
