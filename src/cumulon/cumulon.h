#ifndef CUMULON_CUMULON_H_
#define CUMULON_CUMULON_H_

/// Umbrella header: the public API of the Cumulon reproduction.
///
/// Layering (bottom to top):
///   common   - Status/Result, logging, RNG, thread pool
///   matrix   - tiles, tile kernels, layouts, tile stores
///   dfs      - simulated HDFS and the DFS-backed tile store
///   cloud    - machine catalog and pricing
///   cluster  - jobs/tasks, simulated & real execution engines
///   cost     - calibrated per-tile operation cost models
///   exec     - Cumulon physical operators, plans, executor
///   lang     - logical matrix algebra, optimizer, lowering, workloads
///   baseline - MapReduce-style RMM/CPMM comparison strategies
///   sched    - slot arbitration and the multi-tenant workload manager
///   opt      - deployment predictor and time/budget-constrained search
///   svc      - long-lived service daemon: wire protocol, tenant sessions,
///              submission service, socket server, closed-loop load gen
///   obs      - metrics registry and execution tracer (cross-cutting)

#include "baseline/mr_matmul.h"
#include "cloud/machine.h"
#include "cloud/revocation.h"
#include "cluster/cluster_config.h"
#include "cluster/engine.h"
#include "cluster/real_engine.h"
#include "cluster/sim_engine.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "cost/regression.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "exec/report.h"
#include "lang/driver.h"
#include "lang/expr.h"
#include "lang/interpreter.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/dense_matrix.h"
#include "matrix/tile_io.h"
#include "matrix/tiled_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/elastic.h"
#include "opt/job_tuner.h"
#include "opt/predictor.h"
#include "opt/search.h"
#include "sched/elastic.h"
#include "sched/workload_manager.h"
#include "svc/catalog.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/loadgen.h"
#include "svc/message.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/session.h"
#include "svc/wire.h"

#endif  // CUMULON_CUMULON_H_
