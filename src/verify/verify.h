#ifndef CUMULON_VERIFY_VERIFY_H_
#define CUMULON_VERIFY_VERIFY_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/physical_plan.h"
#include "lang/expr.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// Static-analysis passes over both IRs (the logical Expr DAG and the
/// physical job plan), LLVM-verifier style: every pipeline stage that
/// rewrites or hands off a plan re-checks the invariants the next stage
/// silently assumes, so a miscompile fails immediately at the stage that
/// introduced it instead of corrupting results mid-execution on a paid
/// fleet.
///
/// Each pass reports issues under a typed `verify.*` reason slug (the same
/// "[reason] " Status-message prefix the service's wire errors use, so a
/// rejected SUBMIT carries the exact invariant that failed):
///
///   verify.expr.shape        node dims not derivable from its children
///   verify.expr.cycle        the expression graph is not a DAG
///   verify.expr.dangling     missing/extra child edges for the node kind
///   verify.expr.cse          structurally equal subtrees disagree on shape
///   verify.program.unbound   an Input leaf has no binding or a shape clash
///   verify.plan.dependency   consumed before produced / produced twice /
///                            consumed but never produced nor DFS-resident
///   verify.plan.coverage     an output tile produced twice or never;
///                            checked by Executor::Run on each job's
///                            build, just before the job runs
///   verify.split             MatMul split params cannot tile the grid
///   verify.budget.infeasible memory budget below the cache reservation
///   verify.plan.determinism  lowering's seed not recorded
///
/// Pipeline edges wired to these checks: after logical_optimizer rewrites,
/// at the end of Lower(), inside opt/search + opt/job_tuner candidate
/// enumeration, at WorkloadManager::Submit admission, and at svc SUBMIT.
/// No pass builds a job: tile coverage is checked where the executor
/// builds each job to run it (exec/executor.cc), so every executed plan is
/// covered and each job is built once.
/// Internal edges die via CHECK when CUMULON_VERIFY_FATAL is on (default
/// in !NDEBUG builds); external admission edges always return the typed
/// Status — rejection is their contract, not a crash.
namespace cumulon {

/// Compile-time switch for the die-on-failure behavior, following the
/// lock-order validator's pattern: on in debug builds, off under NDEBUG,
/// overridable either way with -DCUMULON_VERIFY_FATAL=0/1.
#if !defined(CUMULON_VERIFY_FATAL)
#if defined(NDEBUG)
#define CUMULON_VERIFY_FATAL 0
#else
#define CUMULON_VERIFY_FATAL 1
#endif
#endif

/// True when verifier failures on internal compiler edges abort the
/// process (CUMULON_VERIFY_FATAL) instead of degrading to a Status.
bool VerifyChecksAreFatal();

/// One invariant violation: the typed reason slug plus a human message.
struct VerifyIssue {
  std::string reason;   // "verify.plan.dependency", ...
  std::string message;
};

/// Accumulated findings of a verifier run. Empty = the IR is sound.
class [[nodiscard]] VerifyReport {
 public:
  void Add(std::string reason, std::string message) {
    issues_.push_back({std::move(reason), std::move(message)});
  }
  void Merge(VerifyReport other) {
    for (VerifyIssue& issue : other.issues_) {
      issues_.push_back(std::move(issue));
    }
  }

  bool ok() const { return issues_.empty(); }
  const std::vector<VerifyIssue>& issues() const { return issues_; }

  /// True if any issue carries exactly this reason slug.
  bool Has(const std::string& reason) const;

  /// OK, or FailedPrecondition whose message leads with the first issue's
  /// "[reason] " prefix (svc's typed-error idiom) and lists every issue.
  Status ToStatus() const;

  /// "ok" or one line per issue.
  std::string ToString() const;

 private:
  std::vector<VerifyIssue> issues_;
};

/// Options of the logical-IR passes.
struct LogicalVerifyOptions {
  /// Shapes (rows, cols) of externally bound input matrices. Inputs bound
  /// here are shape-checked against their uses.
  std::map<std::string, std::pair<int64_t, int64_t>> bindings;

  /// Flag Input leaves that are neither in `bindings` nor produced by an
  /// earlier assignment. Off by default: the optimizer edge runs before
  /// bindings are known, so only shape clashes are detectable there.
  bool require_bound = false;
};

/// Options of the physical-plan passes.
struct PlanVerifyOptions {
  /// Matrices resident in the DFS before the plan runs. Only enforced when
  /// `check_external` is on (the lowering edge knows its bindings; the
  /// admission edges cannot enumerate a TileStore and skip residency).
  std::set<std::string> external_matrices;
  bool check_external = false;

  /// Budget feasibility (verify.budget.infeasible): with a positive
  /// budget, it must exceed the per-node tile-cache reservation or the
  /// executor cannot even fund the cache. 0 = pass skipped.
  int64_t memory_budget_bytes = 0;
  int64_t cache_reserve_bytes = 0;

  /// Require the lowering-stamped determinism contract (the seed) so a
  /// replay of this plan is bit-identical. On for lowered plans; off for
  /// hand-assembled plans submitted directly.
  bool require_determinism = false;
};

/// A named pass, so callers can enumerate/compose the suite (DESIGN.md
/// "Plan verification" documents the table).
struct LogicalPassInfo {
  const char* name;
  const char* reason;  // primary verify.* slug the pass emits
  void (*run)(const Program& program, const LogicalVerifyOptions& options,
              VerifyReport* report);
};
struct PlanPassInfo {
  const char* name;
  const char* reason;
  void (*run)(const PhysicalPlan& plan, const PlanVerifyOptions& options,
              VerifyReport* report);
};
const std::vector<LogicalPassInfo>& LogicalPasses();
const std::vector<PlanPassInfo>& PlanPasses();

/// Runs the expression-DAG passes (shape, cycle, dangling, cse) on one
/// expression. Cycle-safe: traversal uses a visited set, so even a
/// corrupted cyclic graph terminates.
VerifyReport VerifyExpr(const ExprPtr& root);

/// Runs every logical pass over a whole program (per-assignment VerifyExpr
/// plus the unbound-input pass).
VerifyReport VerifyProgram(const Program& program,
                           const LogicalVerifyOptions& options = {});

/// Runs every physical pass over a plan.
VerifyReport VerifyPlan(const PhysicalPlan& plan,
                        const PlanVerifyOptions& options = {});

/// Checks that MatMul split parameters (bi, bj, bk) tile a (gi x gj x gk)
/// tile grid: positive block extents, except bi = 0, which the build sizes
/// for the cluster (MatMulJob::RowPanelsPerTask), and the ceil-division
/// block ranges cover every tile exactly once with a correct short tail.
/// Negative grid
/// extents skip the grid-dependent arithmetic (shape-generic candidates in
/// opt/search are screened before the grid is known).
VerifyReport VerifyMatMulSplit(const MatMulParams& params, int64_t gi = -1,
                               int64_t gj = -1, int64_t gk = -1);

/// Status-returning entry points: run the suite, bump the verify.runs /
/// verify.failures / verify.issues counters, record a "verify" trace
/// marker, and return VerifyReport::ToStatus(). Null registry/tracer =
/// MetricsRegistry::Default() / GlobalTracer().
Status VerifyProgramStatus(const Program& program,
                           const LogicalVerifyOptions& options = {},
                           MetricsRegistry* metrics = nullptr,
                           Tracer* tracer = nullptr);
Status VerifyPlanStatus(const PhysicalPlan& plan,
                        const PlanVerifyOptions& options = {},
                        MetricsRegistry* metrics = nullptr,
                        Tracer* tracer = nullptr);

}  // namespace cumulon

#endif  // CUMULON_VERIFY_VERIFY_H_
