// Deployment planner: the user-facing workflow of the paper's optimizer.
// Given a program and a time OR money constraint, search the space of
// {machine type x cluster size x slots x multiply splits} and report the
// Pareto trade-off curve plus the constrained optimum.
//
// The answers are then checked against every evaluated plan: the frontier
// is non-empty, sorted by time and undominated; the deadline pick meets
// the deadline and no plan within it is cheaper; the budget pick fits the
// budget and no plan within it is faster. Any failed check is printed and
// the example exits 1.
//
// Usage:
//   deployment_planner [deadline_minutes] [budget_dollars]
// Defaults: 60 minutes, $2.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cumulon/cumulon.h"

namespace {

using namespace cumulon;  // NOLINT: example code

/// Checks the planner's answers against all evaluated `points`; returns
/// the number of failed checks, each printed to stderr.
int CheckAnswers(const std::vector<PlanPoint>& points,
                 const std::vector<PlanPoint>& frontier,
                 const Result<PlanPoint>& by_deadline, double deadline_seconds,
                 const Result<PlanPoint>& by_budget, double budget_dollars) {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    ++failures;
  };
  auto dominates = [](const PlanPoint& a, const PlanPoint& b) {
    return a.seconds <= b.seconds && a.dollars <= b.dollars &&
           (a.seconds < b.seconds || a.dollars < b.dollars);
  };

  check(!frontier.empty(), "the frontier is empty");
  for (size_t i = 1; i < frontier.size(); ++i) {
    check(frontier[i - 1].seconds <= frontier[i].seconds &&
              frontier[i - 1].dollars >= frontier[i].dollars,
          StrCat("frontier out of order at ", frontier[i].ToString()));
  }
  for (const PlanPoint& f : frontier) {
    for (const PlanPoint& p : points) {
      check(!dominates(p, f),
            StrCat(p.ToString(), " dominates frontier plan ", f.ToString()));
    }
  }

  for (const PlanPoint& p : points) {
    if (p.seconds <= deadline_seconds) {
      check(by_deadline.ok() && p.dollars >= by_deadline->dollars,
            StrCat(p.ToString(), " meets the deadline more cheaply"));
    }
    if (p.dollars <= budget_dollars) {
      check(by_budget.ok() && p.seconds >= by_budget->seconds,
            StrCat(p.ToString(), " fits the budget and is faster"));
    }
  }
  if (by_deadline.ok()) {
    check(by_deadline->seconds <= deadline_seconds,
          "the deadline pick misses the deadline");
  }
  if (by_budget.ok()) {
    check(by_budget->dollars <= budget_dollars,
          "the budget pick exceeds the budget");
  }
  return failures;
}

int RunPlanner(double deadline_minutes, double budget_dollars) {
  RsvdSpec spec;
  spec.m = 1 << 16;
  spec.n = 1 << 13;
  spec.l = 64;
  ProgramSpec program_spec;
  program_spec.program = OptimizeProgram(BuildRsvd1(spec));
  program_spec.inputs = {
      {"A", TileLayout::Square(spec.m, spec.n, 2048)},
      {"Omega", TileLayout::Square(spec.n, spec.l, 2048)},
  };
  std::printf("Program:\n%s",
              program_spec.program.DebugString().c_str());
  std::printf("A is %lld x %lld (%s)\n\n", static_cast<long long>(spec.m),
              static_cast<long long>(spec.n),
              FormatBytes(program_spec.inputs[0].layout.TotalBytes()).c_str());

  PredictorOptions options;
  options.lowering.tile_dim = 2048;
  SearchSpace space;
  space.cluster_sizes = {1, 2, 4, 8, 16, 32};

  auto points = EnumeratePlans(program_spec, space, options);
  CUMULON_CHECK(points.ok()) << points.status();
  std::printf("Evaluated %zu deployment plans.\n\n", points->size());

  std::printf("Time/cost Pareto frontier:\n");
  const std::vector<PlanPoint> frontier = ParetoFrontier(*points);
  for (const PlanPoint& p : frontier) {
    std::printf("  %s\n", p.ToString().c_str());
  }

  std::printf("\nCheapest plan finishing within %.0f minutes:\n",
              deadline_minutes);
  auto by_deadline = MinCostUnderDeadline(*points, deadline_minutes * 60.0);
  if (by_deadline.ok()) {
    std::printf("  %s\n", by_deadline->ToString().c_str());
  } else {
    std::printf("  none: %s\n", by_deadline.status().ToString().c_str());
  }

  std::printf("\nFastest plan costing at most %s:\n",
              FormatMoney(budget_dollars).c_str());
  auto by_budget = MinTimeUnderBudget(*points, budget_dollars);
  if (by_budget.ok()) {
    std::printf("  %s\n", by_budget->ToString().c_str());
  } else {
    std::printf("  none: %s\n", by_budget.status().ToString().c_str());
  }

  const int failures =
      CheckAnswers(*points, frontier, by_deadline, deadline_minutes * 60.0,
                   by_budget, budget_dollars);
  std::printf("\nChecked the answers against all %zu plans: %d failed.\n",
              points->size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const double deadline = argc > 1 ? std::atof(argv[1]) : 60.0;
  const double budget = argc > 2 ? std::atof(argv[2]) : 2.0;
  return RunPlanner(deadline, budget);
}
