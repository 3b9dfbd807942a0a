// Per-layer measurement for the repository benchmark: counter snapshots read
// from outside the engine through public APIs only, the metric table that
// names every per-layer number with its unit and meaning, and the probes
// timed on an idle database after a traced window.

#ifndef DORADB_PERFBENCH_LAYERS_H_
#define DORADB_PERFBENCH_LAYERS_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "util/sync_stats.h"

namespace perfbench {

// Which engine window a per-layer metric is read from. kBoth metrics are
// reported once per window, with the suffix ".dora" or ".base".
enum class Scope { kBoth, kDora, kBase };

struct MetricDef {
  const char* name;
  const char* unit;
  Scope scope;
  const char* meaning;
};

// Every per-layer metric the benchmark reports (BENCHMARK.json "per_layer"
// lists the same names, suffixed for kBoth). Per-transaction figures divide
// by the window's attempted transactions.
const std::vector<MetricDef>& LayerMetrics();

// "higher" or "lower": the direction in which a per-layer metric improves.
const char* Better(const MetricDef& m);

// Every transaction type of the workloads, for the
// workloads.<TxnName>.p50_us rows (types a workload does not run read 0).
const std::vector<std::string>& AllTxnNames();

// Counters of every layer at one instant.
struct LayerSnapshot {
  std::chrono::steady_clock::time_point wall;
  uint64_t tsc = 0;
  rusage ru{};
  doradb::StatsSnapshot time_classes;
  doradb::obs::MetricsSnapshot registry;
  doradb::dora::DoraEngine::InboxStats inbox;
  std::vector<uint64_t> exec_busy_cycles;  // AllExecutors() order
  uint64_t lock_acquires = 0, lock_waits = 0, lock_deadlocks = 0,
           lock_timeouts = 0;
  uint64_t bp_hits = 0, bp_misses = 0, bp_evictions = 0;
  uint64_t page_writes = 0;
  uint64_t log_fsyncs = 0;  // DurabilityStats, log streams only

  static LayerSnapshot Take(doradb::Database* db,
                            doradb::dora::DoraEngine* engine);
};

// What a window's clients did, as the layer math needs it.
struct WindowWork {
  uint64_t attempted = 0;
  // Modelled bytes of record data the committed transactions inserted or
  // updated (row sizes times rows per transaction type; see window.cc).
  double record_bytes = 0;
};

using MetricMap = std::map<std::string, double>;

// Per-layer metrics over [a, b]: every kBoth metric and, for a DORA window,
// every kDora metric that counters give (stage and probe rows come from
// the tracer and the probes).
void ComputeLayers(const LayerSnapshot& a, const LayerSnapshot& b,
                   const WindowWork& work, bool dora, MetricMap* out);

// Median gaps between the commit tracer's stage stamps, over every
// transaction stamped since CommitTracer::Enable: dora.stage.dispatch_us,
// dora.stage.inbox_us, dora.stage.execute_us, dora.stage.ack_us and
// log.stage.durable_us (those whose endpoints were stamped).
void ComputeStageGaps(MetricMap* out, uint64_t* txns_traced);

// Median of `fn`'s duration in ns over up to `max_iters` calls, stopping
// after `budget_ms` of wall time.
double MedianNs(const std::function<void()>& fn, int max_iters,
                int budget_ms);

}  // namespace perfbench

#endif  // DORADB_PERFBENCH_LAYERS_H_
